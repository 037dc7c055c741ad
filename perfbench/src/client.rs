//! The load generator's side of the v3 wire protocol: frame codec calls
//! wrapped in spans, and reply classification.

use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use circnn_wire::frame::{self, Reply, Request};

use crate::trace;

/// What a reply frame said about one request.
#[derive(Debug)]
pub enum Answer {
    Output(Vec<f32>),
    /// A typed error reply: the server refused or failed the request.
    Refused,
    /// Undecodable, or a reply of the wrong kind.
    Garbled,
}

pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connecting to the loopback server");
    stream.set_nodelay(true).expect("setting TCP_NODELAY");
    stream
}

/// Appends the v3 `Infer` frame of request `id` to `out`, inside a
/// `wire.encode` span under `root`.
pub fn encode(
    id: u64,
    model: &str,
    input: &[f32],
    root: u64,
    frame: &mut Vec<u8>,
    out: &mut Vec<u8>,
) {
    let req = Request::Infer {
        model: model.to_string(),
        deadline_micros: 0,
        input: input.to_vec(),
    };
    {
        let _span = trace::span("wire.encode", root, id);
        frame::encode_request_v3(id, &req, frame);
    }
    out.extend_from_slice(frame);
}

/// Decodes one reply frame; returns its request id (`None` when the frame
/// carries none or does not decode), the answer and when decoding began
/// and ended, so the caller can record the `wire.decode` span once it
/// knows which request the reply belongs to.
pub fn decode(bytes: &[u8]) -> (Option<u64>, Answer, Instant, Instant) {
    let start = Instant::now();
    let decoded = frame::decode_reply_tagged(bytes);
    let end = Instant::now();
    let (id, answer) = match decoded {
        Ok((id, Reply::Infer { output })) => (id, Answer::Output(output)),
        Ok((id, Reply::Error { .. })) => (id, Answer::Refused),
        Ok((id, _)) => (id, Answer::Garbled),
        Err(_) => (None, Answer::Garbled),
    };
    (id, answer, start, end)
}
