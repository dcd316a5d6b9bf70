//! End-to-end test of the `fdctl` binary: generate → train → predict →
//! score, all through the compiled CLI in a temp directory.

use std::path::PathBuf;
use std::process::Command;

fn fdctl() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fdctl"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fdctl-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn full_cli_workflow() {
    let corpus = tmp("corpus.json");
    let model = tmp("model.json");
    let preds = tmp("predictions.json");

    // generate
    let out = fdctl()
        .args(["generate", "--scale", "0.012", "--seed", "7", "--out"])
        .arg(&corpus)
        .output()
        .expect("run fdctl generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(corpus.exists());

    // train (few epochs to keep the test quick)
    let out = fdctl()
        .args(["train", "--corpus"])
        .arg(&corpus)
        .args(["--out"])
        .arg(&model)
        .args(["--epochs", "4", "--mode", "binary"])
        .output()
        .expect("run fdctl train");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    // predict
    let out = fdctl()
        .args(["predict", "--corpus"])
        .arg(&corpus)
        .args(["--model"])
        .arg(&model)
        .args(["--out"])
        .arg(&preds)
        .output()
        .expect("run fdctl predict");
    assert!(out.status.success(), "predict failed: {}", String::from_utf8_lossy(&out.stderr));
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&preds).unwrap()).unwrap();
    assert_eq!(parsed["mode"], "binary");
    assert!(parsed["articles"].as_array().unwrap().len() > 100);

    // score a new statement
    let out = fdctl()
        .args(["score", "--corpus"])
        .arg(&corpus)
        .args(["--model"])
        .arg(&model)
        .args(["--text", "federal budget report unemployment data", "--creator", "0"])
        .output()
        .expect("run fdctl score");
    assert!(out.status.success(), "score failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("p(credible)"), "unexpected score output: {stdout}");

    // Neighbours outside the corpus are reported, not a panic.
    let bad = [("--creator", "999999", "creator 999999"), ("--subjects", "0,99999", "subject 99999")];
    for (flag, value, named) in bad {
        let out = fdctl()
            .args(["score", "--corpus"])
            .arg(&corpus)
            .args(["--model"])
            .arg(&model)
            .args(["--text", "federal budget report", flag, value])
            .output()
            .expect("run fdctl score");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "score {flag} {value}: {stderr}");
        assert!(stderr.contains(named), "score {flag} {value}: {stderr}");
    }

    // evaluate held-out entities
    let out = fdctl()
        .args(["evaluate", "--corpus"])
        .arg(&corpus)
        .args(["--model"])
        .arg(&model)
        .output()
        .expect("run fdctl evaluate");
    assert!(out.status.success(), "evaluate failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("held-out articles"), "unexpected evaluate output: {stdout}");
    assert!(stdout.contains("precision"));

    // analyze
    let out = fdctl()
        .args(["analyze", "--corpus"])
        .arg(&corpus)
        .output()
        .expect("run fdctl analyze");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("top subjects"));
}

#[test]
fn cli_reports_errors_cleanly() {
    // Unknown command.
    let out = fdctl().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required option.
    let out = fdctl().args(["generate", "--scale", "0.01"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out is required"));

    // Missing corpus file.
    let out = fdctl()
        .args(["analyze", "--corpus", "/nonexistent/corpus.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Zero epochs, refused before a corpus is generated.
    let out = fdctl()
        .args(["train", "--scale", "0.02", "--epochs", "0", "--out"])
        .arg(tmp("never-written.json"))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--epochs must be at least 1"), "{stderr}");
    assert!(!stderr.contains("generated synthetic corpus"), "{stderr}");
}

#[test]
fn cli_refuses_options_a_command_does_not_read() {
    // A retired flag and a misspelt one (second-to-last argument) must
    // each fail before the absent input files are read, naming the
    // offending option.
    let cases: [&[&str]; 2] = [
        &["serve", "--corpus", "absent.json", "--model", "absent.json", "--precision", "int8"],
        &["train", "--corpus", "absent.json", "--out", "absent.json", "--ephocs", "3"],
    ];
    for args in cases {
        let flag = args[args.len() - 2];
        let out = fdctl().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains(&format!("unknown option {flag}")), "{args:?}: {stderr}");
        assert!(!stderr.contains("absent.json"), "{args:?} read a file first: {stderr}");
    }
}
