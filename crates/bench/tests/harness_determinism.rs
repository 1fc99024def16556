//! The tentpole guarantee of the parallel harness: a run on N workers
//! produces byte-identical artifacts and an identical (modulo output
//! directory) stdout report to a serial run — and the serial run's
//! artifacts match the committed quick-scale fingerprint
//! (`tests/golden/quick_artifacts_seed2005.txt`; re-bless with
//! `HARMONY_BLESS=1 cargo test`).

use harmony_bench::harness::{self, RunConfig};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// FNV-1a over a byte slice — a cheap content fingerprint for the
/// artifact comparison (collisions are irrelevant here: equal inputs
/// must hash equal, and on mismatch the test also compares lengths).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Maps file name → (byte length, content hash) for every file in `dir`.
fn dir_fingerprint(dir: &Path) -> BTreeMap<String, (u64, u64)> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("results dir exists") {
        let entry = entry.expect("dir entry");
        let bytes = fs::read(entry.path()).expect("artifact readable");
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            (bytes.len() as u64, fnv1a(&bytes)),
        );
    }
    out
}

/// Renders a fingerprint as one `name length fnv1a` line per artifact.
fn render_fingerprint(fp: &BTreeMap<String, (u64, u64)>) -> String {
    fp.iter()
        .map(|(name, (len, hash))| format!("{name} {len} {hash:016x}\n"))
        .collect()
}

/// Compares the serial quick-scale run with the committed fingerprint,
/// naming every artifact that is new, missing or changed; rewrites the
/// file instead when `HARMONY_BLESS` is set (non-empty, non-`0`).
fn assert_quick_fingerprint(fp: &BTreeMap<String, (u64, u64)>) {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_artifacts_seed2005.txt");
    let actual = render_fingerprint(fp);
    if std::env::var("HARMONY_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        fs::write(&path, actual).expect("bless quick-scale fingerprint");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); re-run with HARMONY_BLESS=1",
            path.display()
        )
    });
    let committed: BTreeMap<&str, &str> = expected
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();
    let rendered: BTreeMap<&str, &str> = actual
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();
    let drifted: Vec<String> = committed
        .keys()
        .chain(rendered.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .filter(|name| committed.get(*name) != rendered.get(*name))
        .map(|name| {
            let show = |v: Option<&&str>| v.map_or("absent".to_string(), |s| s.to_string());
            format!(
                "{name}: committed {}, now {}",
                show(committed.get(name)),
                show(rendered.get(name))
            )
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "quick-scale artifacts at seed 2005 drifted from {}:\n  {}\n\
         if intentional, re-bless with HARMONY_BLESS=1",
        path.display(),
        drifted.join("\n  ")
    );
}

fn quick_config(workers: usize, seed: u64, dir: &Path) -> RunConfig {
    let mut cfg = RunConfig::new(false);
    cfg.workers = workers;
    cfg.seed = seed;
    cfg.out_dir = dir.to_path_buf();
    cfg
}

#[test]
fn parallel_run_byte_identical_to_serial() {
    let base = std::env::temp_dir().join("harmony_harness_determinism");
    let d1 = base.join("w1");
    let d4 = base.join("w4");
    let d8 = base.join("w8");
    for d in [&d1, &d4, &d8] {
        let _ = fs::remove_dir_all(d);
        fs::create_dir_all(d).expect("temp results dir");
    }

    let r1 = harness::run(&quick_config(1, 2005, &d1));
    let r4 = harness::run(&quick_config(4, 2005, &d4));
    let r8 = harness::run(&quick_config(8, 2005, &d8));

    // reports come back in canonical task order for every worker count
    let names1: Vec<&str> = r1.tasks.iter().map(|t| t.name).collect();
    let names4: Vec<&str> = r4.tasks.iter().map(|t| t.name).collect();
    let names8: Vec<&str> = r8.tasks.iter().map(|t| t.name).collect();
    assert_eq!(names1, names4);
    assert_eq!(names1, names8);
    assert_eq!(names1.len(), harness::TASKS.len());

    // stdout blocks are identical once the output directory is masked
    for ((a, b), c) in r1.tasks.iter().zip(&r4.tasks).zip(&r8.tasks) {
        let sa = a.stdout.replace(&d1.display().to_string(), "DIR");
        let sb = b.stdout.replace(&d4.display().to_string(), "DIR");
        let sc = c.stdout.replace(&d8.display().to_string(), "DIR");
        assert_eq!(
            sa, sb,
            "stdout of task {} differs between 1 and 4 workers",
            a.name
        );
        assert_eq!(
            sa, sc,
            "stdout of task {} differs between 1 and 8 workers",
            a.name
        );
    }

    // every artifact is byte-identical
    let f1 = dir_fingerprint(&d1);
    let f4 = dir_fingerprint(&d4);
    let f8 = dir_fingerprint(&d8);
    assert!(
        f1.len() >= 33,
        "expected the full artifact set, got {} files",
        f1.len()
    );
    assert_eq!(f1, f4, "artifacts differ between 1 and 4 workers");
    assert_eq!(f1, f8, "artifacts differ between 1 and 8 workers");
    assert_quick_fingerprint(&f1);

    let _ = fs::remove_dir_all(&base);
}

/// The per-cell fan-out must be invisible in the output: the harness's
/// fig10 merge jobs reassemble tables byte-identical to the pre-split
/// monolithic `fig10::run*` computations, for serial and parallel
/// schedules alike.
#[test]
fn fig10_merge_matches_presplit_monolithic_output() {
    use harmony_bench::experiments::fig10;

    // the monolithic (pre-split) reference at harness quick scale
    let cfg10 = fig10::Fig10Config {
        reps: 50,
        seed: 2005,
        ..Default::default()
    };
    let multisample = fig10::run(&cfg10);
    let reference = [
        multisample.to_csv(),
        fig10::optimal_k(&multisample).to_csv(),
        fig10::run_extended(&cfg10).to_csv(),
        fig10::run_packed(&cfg10).to_csv(),
    ];

    let base = std::env::temp_dir().join("harmony_fig10_presplit");
    for workers in [1usize, 4, 8] {
        let dir = base.join(format!("w{workers}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp results dir");
        let mut cfg = quick_config(workers, 2005, &dir);
        cfg.only = Some(vec!["fig10*".to_string()]);
        let report = harness::run(&cfg);
        assert_eq!(report.tasks.len(), 3, "fig10* selects the three sweeps");
        for (file, want) in [
            ("fig10_multisample.csv", &reference[0]),
            ("fig10_optimal_k.csv", &reference[1]),
            ("fig10_extended.csv", &reference[2]),
            ("fig10_packed.csv", &reference[3]),
        ] {
            let got = fs::read_to_string(dir.join(file)).expect("merged artifact");
            assert_eq!(
                &got, want,
                "{file} from the split harness at -j{workers} differs from \
                 the monolithic computation"
            );
        }
    }
    let _ = fs::remove_dir_all(&base);
}

/// Experiments that read another experiment's sessions instead of
/// rerunning them — `fig10_extended` takes its ρ = 0.40 row from
/// Fig. 10, `table_time_to_quality` reads T3's sessions — still write
/// the bytes of their monolithic computations, and `--only` pulls in
/// the experiment they read.
#[test]
fn shared_sessions_match_monolithic_output() {
    use harmony_bench::experiments::{fig10, tables};

    let cfg10 = fig10::Fig10Config {
        reps: 50,
        seed: 2005,
        ..Default::default()
    };
    let (steps, reps) = (100, 20); // the harness's quick table scale
    let reference = [
        ("fig10_extended.csv", fig10::run_extended(&cfg10).to_csv()),
        (
            "table_time_to_quality.csv",
            tables::time_to_quality(steps, reps, 0.1, 2005).to_csv(),
        ),
        (
            "table_baselines.csv",
            tables::baselines(steps, reps, 0.1, 2005).to_csv(),
        ),
    ];

    let base = std::env::temp_dir().join("harmony_shared_sessions");
    for workers in [1usize, 4] {
        let dir = base.join(format!("w{workers}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("temp results dir");
        let mut cfg = quick_config(workers, 2005, &dir);
        cfg.only = Some(vec![
            "fig10_extended".to_string(),
            "table_time_to_quality".to_string(),
        ]);
        let report = harness::run(&cfg);
        let names: Vec<&str> = report.tasks.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            [
                "fig10",
                "fig10_extended",
                "table_baselines",
                "table_time_to_quality"
            ]
        );
        for (file, want) in &reference {
            let got = fs::read_to_string(dir.join(file)).expect("merged artifact");
            assert_eq!(
                &got, want,
                "{file} from the split harness at -j{workers} differs from \
                 the monolithic computation"
            );
        }
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn seed_flows_into_artifacts() {
    let base = std::env::temp_dir().join("harmony_harness_seed");
    let da = base.join("s2005");
    let db = base.join("s7");
    for d in [&da, &db] {
        let _ = fs::remove_dir_all(d);
        fs::create_dir_all(d).expect("temp results dir");
    }

    harness::run(&quick_config(4, 2005, &da));
    harness::run(&quick_config(4, 7, &db));

    let fa = dir_fingerprint(&da);
    let fb = dir_fingerprint(&db);
    // same artifact set ...
    let keys_a: Vec<&String> = fa.keys().collect();
    let keys_b: Vec<&String> = fb.keys().collect();
    assert_eq!(keys_a, keys_b);
    // ... but the stochastic experiments change with the seed
    assert_ne!(
        fa, fb,
        "changing the global seed left every artifact unchanged"
    );

    let _ = fs::remove_dir_all(&base);
}
