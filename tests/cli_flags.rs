//! `rpm-cli` flag handling through the real binary: a boolean flag never
//! takes the next word as its value, and every subcommand refuses a flag
//! it does not take — naming it, before any file is read or any training
//! starts.

use rpm::data::ucr::write_ucr;
use rpm::data::{generate, DatasetSpec};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rpm-cli"))
        .current_dir(dir)
        .args(args)
        .env_remove("RPM_LOG")
        .output()
        .expect("spawn rpm-cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpm-cli-flags-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a tiny CBF-style training file, returning its name in `dir`.
fn write_tiny_train(dir: &Path) -> &'static str {
    let spec = DatasetSpec {
        name: "CBF",
        classes: 3,
        train: 9,
        test: 3,
        length: 64,
    };
    let (train, _) = generate(&spec, 7);
    write_ucr(
        &train,
        std::fs::File::create(dir.join("cbf_TRAIN")).unwrap(),
    )
    .unwrap();
    "cbf_TRAIN"
}

#[test]
fn boolean_flags_do_not_swallow_the_next_argument() {
    let dir = temp_dir("bool");
    let train = write_tiny_train(&dir);

    let out = run(
        &dir,
        &[
            "train",
            "--rotation-invariant",
            train,
            "--model",
            "m.rpm",
            "--window",
            "16",
        ],
    );
    assert!(out.status.success(), "train: {}", stderr(&out));
    assert!(dir.join("m.rpm").exists());

    let out = run(
        &dir,
        &[
            "serve",
            "--allow-unverified",
            "m.rpm",
            "--addr",
            "127.0.0.1:0",
            "--duration-secs",
            "1",
        ],
    );
    assert!(out.status.success(), "serve: {}", stderr(&out));
    assert!(
        stderr(&out).contains("m.rpm: verified format"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_subcommand_refuses_a_flag_it_does_not_take() {
    let dir = temp_dir("unknown");
    let train = write_tiny_train(&dir);

    // A misspelt flag must not fall back to the default search.
    let out = run(&dir, &["train", train, "--model", "m.rpm", "--windw", "32"]);
    assert!(!out.status.success(), "train accepted --windw");
    assert!(
        stderr(&out).contains("error: unknown flag --windw "),
        "{}",
        stderr(&out)
    );
    assert!(
        !dir.join("m.rpm").exists(),
        "train ran despite the bad flag"
    );

    // Refused before the (missing) model file is opened.
    let out = run(
        &dir,
        &[
            "classify",
            "m.rpm",
            "cbf_TEST",
            "--metrcs-addr",
            "127.0.0.1:0",
        ],
    );
    assert!(!out.status.success(), "classify accepted --metrcs-addr");
    assert!(
        stderr(&out).contains("error: unknown flag --metrcs-addr "),
        "{}",
        stderr(&out)
    );

    // Every other subcommand, each pointed at files and addresses that
    // do not exist: only the flag check can produce this error.
    let commands: [&[&str]; 12] = [
        &["model", "verify", "missing.rpm"],
        &["serve", "missing.rpm"],
        &["serve", "reload", "127.0.0.1:9"],
        &["serve", "rollback", "127.0.0.1:9"],
        &["load-gen", "127.0.0.1:9", "missing_TEST"],
        &["patterns", "missing.rpm"],
        &["motifs", "missing_TRAIN"],
        &["generate", "CBF", "out"],
        &["obs", "summary", "missing.jsonl"],
        &["obs", "diff", "a.jsonl", "b.jsonl"],
        &["obs", "traces", "127.0.0.1:9"],
        &["obs", "drift", "127.0.0.1:9"],
    ];
    for command in commands {
        let mut args = command.to_vec();
        args.push("--bogus");
        let out = run(&dir, &args);
        assert!(!out.status.success(), "{command:?} accepted --bogus");
        assert!(
            stderr(&out).contains("error: unknown flag --bogus "),
            "{command:?}: {}",
            stderr(&out)
        );
    }
    assert!(!dir.join("out_TRAIN").exists(), "generate ran");
    let _ = std::fs::remove_dir_all(&dir);
}
