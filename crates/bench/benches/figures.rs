//! Renders the paper's figures from the figure table:
//!
//! ```sh
//! cargo bench -p bench --bench figures               # every figure
//! cargo bench -p bench --bench figures -- fig07 fig09
//! ```
//!
//! Flags (cargo passes `--bench`) are ignored; an unknown id exits 2 and
//! lists the valid ids. All figures run in this one process, so runs they
//! share (baselines, alone-IPC runs) are simulated once.

fn main() {
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let figures = bench::select(&ids).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut out = std::io::stdout().lock();
    for fig in figures {
        bench::render(fig, &mut out).expect("write figure to stdout");
    }
}
