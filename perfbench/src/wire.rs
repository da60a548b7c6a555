//! A raw protocol connection: one request frame out, one response frame
//! back, timed on the client and kept as bytes so cache hits can be
//! compared byte for byte with the misses they repeat.

use semex_serve::protocol::{
    read_frame_into, read_response, write_frame, write_request_frame, Request, RequestFrame,
    Response, PROTOCOL_VERSION,
};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Wire {
    stream: TcpStream,
    pub payload: Vec<u8>,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        Wire {
            stream,
            payload: Vec::with_capacity(64 << 10),
        }
    }

    /// Send `request` to `tenant` and wait for the answer; returns the
    /// latency from send to the last byte of the answer. The answer's
    /// bytes are left in `self.payload`.
    pub fn call(&mut self, tenant: &str, request: Request) -> Duration {
        let frame = RequestFrame {
            v: PROTOCOL_VERSION,
            tenant: Some(tenant.to_string()),
            request,
        };
        let t = Instant::now();
        write_request_frame(&mut self.stream, &frame).expect("send request frame");
        let got =
            read_frame_into(&mut self.stream, &mut self.payload).expect("read response frame");
        let took = t.elapsed();
        assert!(got, "server closed the connection");
        took
    }

    /// Decode the last answer.
    pub fn response(&self) -> Response {
        decode(&self.payload)
    }
}

pub fn decode(payload: &[u8]) -> Response {
    let mut framed = Vec::with_capacity(payload.len() + 8);
    write_frame(&mut framed, payload).expect("re-frame payload");
    read_response(&mut framed.as_slice())
        .expect("decode response")
        .expect("one response")
}

/// FNV-1a, for remembering answers by content.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
