//! The system under test: spooled registry, durable pool and HTTP
//! gateway, all on their default configuration except for deployment
//! settings (address and data directory).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lixto_elog::SharedWeb;
use lixto_http::{GatewayConfig, HttpGateway};
use lixto_server::{
    durability_layout, ExtractionServer, ServerConfig, StoreConfig, WrapperRegistry,
};

use crate::util::RawClient;

pub struct Stack {
    pub server: Arc<ExtractionServer>,
    pub gateway: HttpGateway,
}

impl Stack {
    /// Start the stack on data directory `dir` and wait for the first
    /// 200 answer to `first_request`; returns the stack and the seconds
    /// from start to that response.
    pub fn start(dir: &Path, web: Arc<SharedWeb>, first_request: &[u8]) -> (Stack, f64) {
        let started = Instant::now();
        let layout = durability_layout(dir);
        let registry =
            Arc::new(WrapperRegistry::with_spool(&layout.wrappers).expect("open wrapper spool"));
        let server = Arc::new(ExtractionServer::start(
            ServerConfig {
                store: Some(StoreConfig::new(&layout.store)),
                ..ServerConfig::default()
            },
            registry,
            web,
        ));
        let gateway = HttpGateway::bind("127.0.0.1:0", GatewayConfig::default(), server.clone())
            .expect("bind gateway");
        let mut client = RawClient::connect(gateway.addr()).expect("connect to gateway");
        let (status, _) = client.round_trip(first_request).expect("first request");
        assert_eq!(status, 200, "first request after start");
        let secs = started.elapsed().as_secs_f64();
        (Stack { server, gateway }, secs)
    }

    pub fn addr(&self) -> SocketAddr {
        self.gateway.addr()
    }

    pub fn stop(self) {
        self.gateway.shutdown();
        self.server.initiate_shutdown();
    }
}
