//! What a result needs to say about the machine it was measured on.

use rescnn_hwsim::CpuProfile;
use rescnn_tensor::engine;

use crate::config;
use crate::json::Value;

/// The microkernel tier the engine was compiled for; it is fixed at build time
/// by `-C target-cpu`, so this package sees the same target features.
pub fn isa_tier() -> &'static str {
    if engine::NR == 32 {
        "avx512"
    } else if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
        "avx2"
    } else {
        "portable"
    }
}

pub fn fingerprint(engine_threads: usize) -> Value {
    let profile = CpuProfile::host();
    Value::obj([
        ("nproc", Value::Num(config::nproc() as f64)),
        ("isa_tier", Value::str(isa_tier())),
        ("microkernel", Value::str(format!("{}x{}", engine::MR, engine::NR))),
        ("engine_threads", Value::Num(engine_threads as f64)),
        (
            "cpu_profile",
            Value::obj([
                ("name", Value::str(profile.name.clone())),
                ("cores", Value::Num(profile.cores as f64)),
                ("simd_width", Value::Num(profile.simd_width as f64)),
                ("fma_per_cycle", Value::Num(profile.fma_per_cycle as f64)),
                ("frequency_ghz", Value::Num(profile.frequency_ghz)),
                ("dram_gib_s", Value::Num(profile.dram_gib_s)),
                ("peak_efficiency", Value::Num(profile.peak_efficiency)),
            ]),
        ),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
