//! The newline-JSON request/reply protocol.
//!
//! One request per line. Every request is an object with an `"op"`
//! discriminator and an optional `"shard"` **affinity hint**:
//!
//! ```text
//! {"op":"infer","nodes":[0,17,42]}
//! {"op":"ingest","features":[0.1,0.2],"neighbors":[3,9]}
//! {"op":"observe_edge","u":3,"v":9}
//! ```
//!
//! Clients never need to route: mutations are stamped with a global
//! sequence number and replicated to every shard, so any replica can
//! serve any node and an ingested node id is valid service-wide. The
//! `"shard"` hint only biases which replica computes the reply (e.g.
//! for measurement); it has no correctness meaning.
//!
//! Replies mirror the request order, one JSON object per line, each
//! carrying `"ok"` plus either the result or an `"error"` kind, and —
//! on success — the `"applied_seq"` sequence point of the serving
//! replica (the mutation sequence number its state included when the
//! reply was computed):
//!
//! ```text
//! {"ok":true,"op":"infer","shard":0,"applied_seq":7,"results":[{"node":0,"prediction":2,"depth":1},...]}
//! {"ok":true,"op":"ingest","shard":1,"applied_seq":8,"node":205,"prediction":0,"depth":2}
//! {"ok":true,"op":"observe_edge","shard":1,"applied_seq":9,"added":true}
//! {"ok":false,"error":"overloaded"}
//! ```

use crate::json::Json;

/// One graph-serving operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Classify existing nodes (read — served by any replica).
    Infer {
        /// Node ids to classify.
        nodes: Vec<u32>,
    },
    /// A node arrival: append it and answer its prediction (mutation —
    /// sequenced and replicated to every shard).
    Ingest {
        /// The arriving node's features.
        features: Vec<f32>,
        /// Existing nodes it attaches to.
        neighbors: Vec<u32>,
    },
    /// An edge arrival between existing nodes (mutation — sequenced and
    /// replicated to every shard).
    ObserveEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
    },
}

/// An operation plus an optional replica affinity hint.
///
/// The hint names the replica that computes (and answers) the request;
/// without one, the sequencer assigns replicas round-robin. Mutations
/// are applied on *every* replica regardless of the hint — routing is
/// a load-balancing preference, never a consistency contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Replica affinity hint, if any.
    pub shard: Option<usize>,
}

/// One per-node classification result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeResult {
    /// Node id (globally valid — every replica knows it).
    pub node: u32,
    /// Predicted class.
    pub prediction: usize,
    /// Personalized propagation depth used.
    pub depth: usize,
}

/// A successful (or per-op failed) answer from a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Op::Infer`].
    Infer {
        /// Replica that served the read (informational).
        shard: usize,
        /// Mutation sequence number the serving replica's state
        /// included when this read executed.
        applied_seq: u64,
        /// One result per requested node, in request order.
        results: Vec<NodeResult>,
    },
    /// Answer to [`Op::Ingest`].
    Ingest {
        /// Replica that computed the prediction (informational — the
        /// node exists on every replica).
        shard: usize,
        /// Mutation sequence number the serving replica's state
        /// included when the prediction was computed (≥ this ingest's
        /// own sequence number).
        applied_seq: u64,
        /// Assigned node id, valid on every replica.
        node: u32,
        /// Predicted class for the arrival.
        prediction: usize,
        /// Personalized propagation depth used.
        depth: usize,
    },
    /// Answer to [`Op::ObserveEdge`].
    Edge {
        /// Replica that answered (the mutation is applied everywhere).
        shard: usize,
        /// This edge arrival's own sequence number (the answering
        /// replica replies at the moment it applies it).
        applied_seq: u64,
        /// `false` when the edge already existed.
        added: bool,
    },
    /// Per-op validation failure (bad node id, wrong feature length…).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

fn u32_array(v: &Json, field: &str) -> Result<Vec<u32>, String> {
    let arr = v
        .get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("`{field}` must be an array"))?;
    arr.iter()
        .map(|x| {
            x.as_u64()
                .filter(|&id| id <= u32::MAX as u64)
                .map(|id| id as u32)
                .ok_or_else(|| format!("`{field}` entries must be u32 node ids"))
        })
        .collect()
}

fn u32_field(v: &Json, field: &str) -> Result<u32, String> {
    v.get(field)
        .and_then(Json::as_u64)
        .filter(|&id| id <= u32::MAX as u64)
        .map(|id| id as u32)
        .ok_or_else(|| format!("`{field}` must be a u32 node id"))
}

/// Parses one request line.
///
/// # Errors
/// Returns a message suitable for an `"invalid"` error reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line)?;
    let shard = match v.get("shard") {
        None | Some(Json::Null) => None,
        Some(s) => Some(
            s.as_u64()
                .ok_or_else(|| "`shard` must be a non-negative integer".to_string())?
                as usize,
        ),
    };
    let op = match v.get("op").and_then(Json::as_str) {
        Some("infer") => Op::Infer {
            nodes: u32_array(&v, "nodes")?,
        },
        Some("ingest") => {
            let feats = v
                .get("features")
                .and_then(Json::as_arr)
                .ok_or_else(|| "`features` must be an array".to_string())?;
            let features = feats
                .iter()
                .map(|x| {
                    x.as_f64()
                        .map(|f| f as f32)
                        .ok_or_else(|| "`features` entries must be numbers".to_string())
                })
                .collect::<Result<Vec<f32>, String>>()?;
            let neighbors = match v.get("neighbors") {
                None | Some(Json::Null) => Vec::new(),
                Some(_) => u32_array(&v, "neighbors")?,
            };
            Op::Ingest {
                features,
                neighbors,
            }
        }
        Some("observe_edge") => Op::ObserveEdge {
            u: u32_field(&v, "u")?,
            v: u32_field(&v, "v")?,
        },
        Some(other) => return Err(format!("unknown op `{other}`")),
        None => return Err("missing `op` field".to_string()),
    };
    Ok(Request { op, shard })
}

/// Renders a request as one wire line (the client side).
pub fn render_request(req: &Request) -> String {
    let mut fields: Vec<(&str, Json)> = match &req.op {
        Op::Infer { nodes } => vec![
            ("op", Json::str("infer")),
            (
                "nodes",
                Json::Arr(nodes.iter().map(|&n| Json::uint(n as u64)).collect()),
            ),
        ],
        Op::Ingest {
            features,
            neighbors,
        } => vec![
            ("op", Json::str("ingest")),
            (
                "features",
                Json::Arr(features.iter().map(|&x| Json::Num(x as f64)).collect()),
            ),
            (
                "neighbors",
                Json::Arr(neighbors.iter().map(|&n| Json::uint(n as u64)).collect()),
            ),
        ],
        Op::ObserveEdge { u, v } => vec![
            ("op", Json::str("observe_edge")),
            ("u", Json::uint(*u as u64)),
            ("v", Json::uint(*v as u64)),
        ],
    };
    if let Some(s) = req.shard {
        fields.push(("shard", Json::uint(s as u64)));
    }
    Json::obj(fields).to_string()
}

/// Renders a reply as one wire line.
pub fn render_reply(reply: &Reply) -> String {
    match reply {
        Reply::Infer {
            shard,
            applied_seq,
            results,
        } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("infer")),
            ("shard", Json::uint(*shard as u64)),
            ("applied_seq", Json::uint(*applied_seq)),
            (
                "results",
                Json::Arr(
                    results
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("node", Json::uint(r.node as u64)),
                                ("prediction", Json::uint(r.prediction as u64)),
                                ("depth", Json::uint(r.depth as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Reply::Ingest {
            shard,
            applied_seq,
            node,
            prediction,
            depth,
        } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("ingest")),
            ("shard", Json::uint(*shard as u64)),
            ("applied_seq", Json::uint(*applied_seq)),
            ("node", Json::uint(*node as u64)),
            ("prediction", Json::uint(*prediction as u64)),
            ("depth", Json::uint(*depth as u64)),
        ]),
        Reply::Edge {
            shard,
            applied_seq,
            added,
        } => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("observe_edge")),
            ("shard", Json::uint(*shard as u64)),
            ("applied_seq", Json::uint(*applied_seq)),
            ("added", Json::Bool(*added)),
        ]),
        Reply::Error { message } => error_line("invalid", Some(message)),
    }
    .to_string()
}

/// An `{"ok":false,...}` object for transport-level failures
/// (`overloaded`, `shutting_down`, `invalid`, `timeout`, …).
pub fn error_line(kind: &str, message: Option<&str>) -> Json {
    let mut fields = vec![("ok", Json::Bool(false)), ("error", Json::str(kind))];
    if let Some(m) = message {
        fields.push(("message", Json::str(m)));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_ops() {
        let r = parse_request(r#"{"op":"infer","nodes":[4,0]}"#).unwrap();
        assert_eq!(
            r,
            Request {
                op: Op::Infer { nodes: vec![4, 0] },
                shard: None
            }
        );
        let r = parse_request(r#"{"op":"ingest","features":[0.5,-1],"neighbors":[2],"shard":3}"#)
            .unwrap();
        assert_eq!(
            r,
            Request {
                op: Op::Ingest {
                    features: vec![0.5, -1.0],
                    neighbors: vec![2]
                },
                shard: Some(3)
            }
        );
        let r = parse_request(r#"{"op":"observe_edge","u":1,"v":2,"shard":0}"#).unwrap();
        assert_eq!(
            r,
            Request {
                op: Op::ObserveEdge { u: 1, v: 2 },
                shard: Some(0)
            }
        );
    }

    #[test]
    fn ingest_neighbors_default_empty() {
        let r = parse_request(r#"{"op":"ingest","features":[1]}"#).unwrap();
        assert_eq!(
            r.op,
            Op::Ingest {
                features: vec![1.0],
                neighbors: vec![]
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"nodes":[1]}"#,
            r#"{"op":"teleport"}"#,
            r#"{"op":"infer","nodes":[-1]}"#,
            r#"{"op":"infer","nodes":[1.5]}"#,
            r#"{"op":"infer","nodes":"all"}"#,
            r#"{"op":"ingest","features":["x"]}"#,
            r#"{"op":"observe_edge","u":1}"#,
            r#"{"op":"infer","nodes":[],"shard":-1}"#,
            r#"{"op":"infer","nodes":[9999999999]}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn request_render_parse_roundtrip() {
        for req in [
            Request {
                op: Op::Infer {
                    nodes: vec![0, 99, 7],
                },
                shard: Some(1),
            },
            Request {
                op: Op::Ingest {
                    features: vec![0.25, -0.5, 3.0],
                    neighbors: vec![1, 2],
                },
                shard: None,
            },
            Request {
                op: Op::ObserveEdge { u: 5, v: 9 },
                shard: Some(0),
            },
        ] {
            let line = render_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn replies_render_with_ok_flag_and_sequence() {
        let line = render_reply(&Reply::Infer {
            shard: 2,
            applied_seq: 11,
            results: vec![NodeResult {
                node: 7,
                prediction: 1,
                depth: 3,
            }],
        });
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("shard").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("applied_seq").unwrap().as_u64(), Some(11));
        let r = &v.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(r.get("node").unwrap().as_u64(), Some(7));
        assert_eq!(r.get("depth").unwrap().as_u64(), Some(3));

        let line = render_reply(&Reply::Edge {
            shard: 0,
            applied_seq: 4,
            added: true,
        });
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("applied_seq").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("added").unwrap().as_bool(), Some(true));

        let err = render_reply(&Reply::Error {
            message: "node 9 out of range".into(),
        });
        let v = Json::parse(&err).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("invalid"));
    }

    #[test]
    fn error_lines_carry_kind() {
        let v = error_line("overloaded", None);
        assert_eq!(v.get("error").unwrap().as_str(), Some("overloaded"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
    }
}
