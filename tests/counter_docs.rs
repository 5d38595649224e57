//! The counter tables of `BENCHMARKS.md` cannot drift from the code.
//!
//! Each counter set is declared once with `decomp::counters!`, which
//! generates its `FIELDS` list. Each set has one table in
//! `BENCHMARKS.md` whose header's first cell is the set's type name in
//! backticks; the first cell of every row names one or more fields in
//! backticks. A field without a row, or a row naming no field, fails.

use std::collections::BTreeSet;

const DOC: &str = include_str!("../BENCHMARKS.md");

/// The first cell of a table line, trimmed; `None` off a table.
fn first_cell(line: &str) -> Option<&str> {
    line.strip_prefix('|')?.split('|').next().map(str::trim)
}

/// The backticked words of a cell.
fn backticked(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

/// Field names in the first column of the table headed `` `ty` ``, or
/// `None` when no table has that header.
fn table_rows(doc: &str, ty: &str) -> Option<BTreeSet<String>> {
    let header = format!("`{ty}`");
    let mut lines = doc
        .lines()
        .map(str::trim)
        .skip_while(|l| first_cell(l) != Some(header.as_str()));
    lines.next()?;
    Some(
        lines
            .skip(1) // the |---| line
            .map_while(first_cell)
            .flat_map(backticked)
            .map(String::from)
            .collect(),
    )
}

fn check(doc: &str, ty: &str, fields: &[(&str, &str)]) -> Result<(), String> {
    let rows = table_rows(doc, ty).ok_or_else(|| format!("no table headed `{ty}`"))?;
    let names: BTreeSet<String> = fields.iter().map(|(n, _)| n.to_string()).collect();
    let missing: Vec<_> = names.difference(&rows).collect();
    let stale: Vec<_> = rows.difference(&names).collect();
    if missing.is_empty() && stale.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "`{ty}` table: fields without a row {missing:?}, rows without a field {stale:?}"
        ))
    }
}

const SETS: &[(&str, &[(&str, &str)])] = &[
    ("SolveStats", logk::SolveStats::FIELDS),
    ("CacheSnapshot", logk::CacheSnapshot::FIELDS),
    ("MemoSnapshot", detk::MemoSnapshot::FIELDS),
    ("RaceStats", portfolio::RaceStats::FIELDS),
    ("ServiceStats", htdserve::ServiceStats::FIELDS),
    ("WireStats", htdwire::WireStats::FIELDS),
];

#[test]
fn every_counter_has_a_row_in_benchmarks_md() {
    let errors: Vec<String> = SETS
        .iter()
        .filter_map(|(ty, fields)| check(DOC, ty, fields).err())
        .collect();
    assert!(
        errors.is_empty(),
        "BENCHMARKS.md drifted:\n{}",
        errors.join("\n")
    );
}
