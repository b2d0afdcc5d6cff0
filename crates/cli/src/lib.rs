//! Library surface of the `prospector` CLI.
//!
//! The binary (`src/main.rs`) is the real product; this library exists
//! so the HTTP serve loop can be driven in-process by integration tests
//! (bind port 0, issue real `TcpStream` requests, flip the shutdown
//! flag, and assert the loop returns with every worker joined).

#![deny(unsafe_code)]

pub mod http;
pub mod poller;
pub mod serve;
