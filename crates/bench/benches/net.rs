//! Wire-path benchmarks: the same per-operation costs `benches/psp.rs`
//! measures in-process, re-measured through a real `net::Server` on
//! loopback TCP. The difference between the two files is the price of
//! the service boundary — HTTP parse, length framing, thread handoff —
//! which perfbench's `view-hot` workload measures end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use puppies_bench::pascal_image;
use puppies_core::{protect, OwnerKey, ProtectOptions};
use puppies_image::Rect;
use puppies_psp::net::{Client, ServeConfig, Server};
use puppies_psp::PspConfig;
use puppies_transform::{ScaleFilter, Transformation};

fn protected_fixture() -> (Vec<u8>, Vec<u8>) {
    let img = pascal_image();
    let roi = Rect::new(100, 80, 160, 120);
    let key = OwnerKey::from_seed([0x51; 32]);
    let out = protect(&img, &[roi], &key, &ProtectOptions::default()).expect("protect fixture");
    (out.bytes, out.params.to_bytes())
}

/// Boots a server on an ephemeral port over a throwaway store (fsync off
/// — the wire, not the disk, is under test) and returns a connected
/// client plus the admin token for shutdown.
struct Wire {
    client: Client,
    admin: String,
    dir: std::path::PathBuf,
    thread: std::thread::JoinHandle<puppies_psp::Result<()>>,
}

fn boot() -> Wire {
    let dir = std::env::temp_dir().join(format!("puppies_crit_net_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir");
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.clone(),
        fsync: false,
        psp: PspConfig::default(),
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let thread = std::thread::spawn(move || server.run());
    let admin = std::fs::read_to_string(dir.join("admin.token"))
        .expect("admin token")
        .trim()
        .to_string();
    let client = Client::connect(&addr).expect("connect");
    Wire {
        client,
        admin,
        dir,
        thread,
    }
}

impl Wire {
    fn stop(mut self) {
        self.client.shutdown(&self.admin).expect("shutdown");
        self.thread.join().expect("join").expect("server");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn bench_wire_paths(c: &mut Criterion) {
    let (jpeg, params) = protected_fixture();
    let mut wire = boot();
    let receipt = wire.client.upload(&jpeg, &params).expect("upload");
    let t = Transformation::Scale {
        width: 320,
        height: 240,
        filter: ScaleFilter::Bilinear,
    };
    // Warm the transform cache so `transformed_cached` measures hits.
    wire.client
        .download_transformed(receipt.id, &t)
        .expect("warm cache");

    let mut group = c.benchmark_group("psp_wire");
    group.bench_function("health", |b| {
        b.iter(|| wire.client.health().expect("health"))
    });
    group.bench_function("download", |b| {
        b.iter(|| wire.client.download(receipt.id).expect("download"))
    });
    group.bench_function("download_params", |b| {
        b.iter(|| wire.client.download_params(receipt.id).expect("params"))
    });
    group.bench_function("transformed_cached", |b| {
        b.iter(|| {
            wire.client
                .download_transformed(receipt.id, &t)
                .expect("cached view")
        })
    });
    group.sample_size(20);
    group.bench_function("upload", |b| {
        b.iter(|| wire.client.upload(&jpeg, &params).expect("upload"))
    });
    group.finish();
    wire.stop();
}

criterion_group!(benches, bench_wire_paths);
criterion_main!(benches);
