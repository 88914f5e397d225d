//! Figures 2–4: the cost-vector database examples (T16–T19), their
//! lossless summaries (T20–T21), and the lossy summaries after dropping
//! the un-instantiable `B` dimension (Figure 4 / Example 6.2).

use crate::table::TextTable;
use hermes_common::PatternShape;
use hermes_dcsm::{vectordb::figure2_database, CostVectorDb, SummaryTable};

/// Renders a detail table (Figure 2 style) for one function.
pub fn render_detail(db: &CostVectorDb, domain: &str, function: &str) -> String {
    let records = db.records_for(domain, function);
    let arity = records.first().map(|r| r.call.args.len()).unwrap_or(0);
    let mut header: Vec<String> = (1..=arity).map(|i| format!("arg{i}")).collect();
    header.extend(["Card".to_string(), "T_a".to_string()]);
    let mut t = TextTable::new(header);
    for r in records {
        let mut row: Vec<String> = r.call.args.iter().map(|v| v.to_string()).collect();
        row.push(
            r.vector
                .cardinality
                .map(|c| format!("{c:.0}"))
                .unwrap_or_else(|| "?".into()),
        );
        row.push(
            r.vector
                .t_all_ms
                .map(|c| format!("{c:.2}"))
                .unwrap_or_else(|| "?".into()),
        );
        t.row(row);
    }
    format!("{domain}:{function} (detail, Figure 2)\n{}", t.render())
}

/// Renders a summary table (Figures 3–4 style).
pub fn render_summary(table: &SummaryTable, caption: &str) -> String {
    let dims = table.shape.dimension_count();
    let mut header: Vec<String> = (1..=dims).map(|i| format!("dim{i}")).collect();
    header.extend(["Card".to_string(), "T_a".to_string(), "l".to_string()]);
    let mut t = TextTable::new(header);
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    for (key, row) in rows {
        let mut cells: Vec<String> = key.iter().map(|v| v.to_string()).collect();
        cells.push(
            row.card
                .mean()
                .map(|c| format!("{c:.2}"))
                .unwrap_or_else(|| "?".into()),
        );
        cells.push(
            row.t_all
                .mean()
                .map(|c| format!("{c:.2}"))
                .unwrap_or_else(|| "?".into()),
        );
        cells.push(row.l.to_string());
        t.row(cells);
    }
    format!("{} ({})\n{}", table.shape, caption, t.render())
}

/// Regenerates all of Figures 2–4 as one report string.
pub fn report() -> String {
    let db = figure2_database();
    let mut out = String::new();
    for (domain, function) in [
        ("d1", "p_bf"),
        ("d1", "p_bb"),
        ("d2", "q_bf"),
        ("d2", "q_ff"),
    ] {
        out.push_str(&render_detail(&db, domain, function));
        out.push('\n');
    }
    let tables = [
        // Figure 3: lossless summaries of T16 and T19.
        ("d1", "p_bf", vec![true], "lossless summary, Figure 3 / T20"),
        ("d2", "q_ff", vec![], "lossless summary, Figure 3 / T21"),
        // Figure 4: drop the B dimension of p_bb and q_bf (Example 6.2).
        ("d1", "p_bb", vec![true, false], "lossy summary, Figure 4"),
        ("d2", "q_bf", vec![false], "lossy summary, Figure 4"),
    ];
    let rendered = tables.map(|(domain, function, dims, caption)| {
        let shape = PatternShape::new(domain, function, dims);
        render_summary(&SummaryTable::summarize(&db, shape), caption)
    });
    out.push_str(&rendered.join("\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_paper_values() {
        let r = report();
        // T16 detail rows.
        assert!(r.contains("2.20"));
        // T20 lossless: A='a' → T_a 2.10, l=2.
        assert!(r.contains("2.10"));
        // T21: q_ff single row T_a 5.20.
        assert!(r.contains("5.20"));
        // Figure 4: q_bf fully lossy mean (1.10+1.30+1.15)/3 = 1.18.
        assert!(r.contains("1.18"));
    }

    #[test]
    fn detail_tables_have_expected_row_counts() {
        let db = figure2_database();
        assert!(render_detail(&db, "d1", "p_bf").lines().count() >= 6);
        assert!(render_detail(&db, "d2", "q_ff").lines().count() >= 4);
    }
}
