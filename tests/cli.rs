//! End-to-end tests for the `lkd` command-line tool.

use std::process::Command;

fn lkd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lkd"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn decompose_reports_optimal_width() {
    let f = write_temp("lkd_cli_c4.hg", "r1(x,y), r2(y,z), r3(z,w), r4(w,x).");
    let out = lkd()
        .args(["decompose", f.to_str().unwrap(), "--threads=1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("width: 2"), "{stdout}");
    assert!(stdout.contains("λ ="), "{stdout}");
}

#[test]
fn width_only_mode_is_terse() {
    let f = write_temp("lkd_cli_path.hg", "a(x,y), b(y,z).");
    let out = lkd()
        .args([
            "decompose",
            f.to_str().unwrap(),
            "--width-only",
            "--threads=1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.trim(), "width: 1");
}

#[test]
fn fixed_k_refusal_has_nonzero_exit() {
    let f = write_temp("lkd_cli_tri.hg", "a(x,y), b(y,z), c(z,x).");
    let out = lkd()
        .args(["decompose", f.to_str().unwrap(), "--k=1", "--threads=1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no decomposition"));
}

#[test]
fn stats_subcommand() {
    let f = write_temp("lkd_cli_stats.hg", "a(x,y,z), b(z,w).");
    let out = lkd().args(["stats", f.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edges:      2"));
    assert!(stdout.contains("acyclic:    true"));
    // The triangle {x, y, z} survives w's contraction: mmw = 2, and with
    // max arity 3 that implies only hw >= 1.
    assert!(stdout.contains("mmw:        2 "), "{stdout}");
    assert!(stdout.contains("hw >=       1 "), "{stdout}");
}

#[test]
fn pace_input_is_accepted() {
    let f = write_temp("lkd_cli_pace.htd", "p htd 3 2\n1 1 2\n2 2 3\n");
    let out = lkd()
        .args([
            "decompose",
            f.to_str().unwrap(),
            "--pace",
            "--width-only",
            "--threads=1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("width: 1"));
}

#[test]
fn alternative_methods_agree() {
    let f = write_temp("lkd_cli_methods.hg", "r1(x,y), r2(y,z), r3(z,w), r4(w,x).");
    // Every registry name, then the older spellings `lkd` still accepts.
    let canonical = portfolio::EngineKind::ALL.map(|e| e.name());
    for method in canonical.into_iter().chain(["hybrid", "logk", "sat"]) {
        let out = lkd()
            .args([
                "decompose",
                f.to_str().unwrap(),
                &format!("--method={method}"),
                "--width-only",
                "--threads=1",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "method {method}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("width: 2"),
            "method {method}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn unknown_flags_are_rejected() {
    let out = lkd().args(["decompose", "--bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_method_is_a_usage_error() {
    let f = write_temp("lkd_cli_bogus.hg", "a(x,y), b(y,z).");
    let out = lkd()
        .args(["decompose", f.to_str().unwrap(), "--method=bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method bogus"));
}
