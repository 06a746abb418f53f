//! The `mg-serve` daemon: binds, prints the bound address, serves until
//! SIGINT/SIGTERM, drains, and exits 0.
//!
//! This binary is the only place in the serve stack that touches
//! process-level concerns: `MG_*` environment compatibility
//! ([`mg_bench::Config::init_cli`]), command-line flags
//! ([`ServeConfig::from_args`]), and signal wiring (first signal
//! requests a graceful drain; a second one exits immediately with the
//! conventional `128 + signo`).

use mg_serve::{ServeConfig, Server};

fn main() {
    mg_bench::Config::init_cli();
    let cfg = match ServeConfig::from_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("mg-serve: {e}");
            std::process::exit(2);
        }
    };
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("mg-serve: bind: {e}");
            std::process::exit(2);
        }
    };
    println!("mg-serve listening on {}", server.local_addr());
    let _watch = mg_bench::signals::SignalWatch::install(|signo, count| {
        if count == 1 {
            eprintln!("mg-serve: signal {signo}: draining");
            mg_bench::request_shutdown();
        } else {
            eprintln!("mg-serve: signal {signo} again: exiting now");
            std::process::exit(128 + signo);
        }
    });
    let stats = server.run();
    println!(
        "mg-serve drained: {} connections, {} jobs completed, {} coalesced, {} replayed",
        stats.connections, stats.store.completed, stats.store.coalesced, stats.store.replayed
    );
}
