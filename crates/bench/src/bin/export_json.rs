//! Exports a `.mgb` binary record — a disk-cache entry or a journal
//! row — to its JSON debug view.
//!
//! Usage: `export_json FILE.mgb [FILE.mgb ...]`
//!
//! Writes `FILE.json` (pretty-printed) next to each input and prints
//! the pair. The record kind and schema version are taken from the
//! record's own header, so either kind converts without telling the
//! tool what it is.
//! Corrupt records (bad magic, failed checksum, truncation) are
//! reported and exit non-zero; nothing is written for them.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: export_json FILE.mgb [FILE.mgb ...]");
        eprintln!("writes the JSON debug view FILE.json next to each input");
        std::process::exit(2);
    }
    let mut failed = false;
    for arg in &args {
        match export(std::path::Path::new(arg)) {
            Ok(out) => println!("{arg} -> {}", out.display()),
            Err(e) => {
                eprintln!("{arg}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn export(path: &std::path::Path) -> Result<std::path::PathBuf, String> {
    use mg_bench::binfmt;
    let bytes = std::fs::read(path).map_err(|e| format!("read failed: {e}"))?;
    let header = binfmt::peek_header(&bytes).map_err(|e| e.to_string())?;
    let kind = binfmt::RecordKind::from_u16(header.kind)
        .ok_or_else(|| format!("unknown record kind tag {}", header.kind))?;
    let value = binfmt::open_value(&bytes, kind, header.schema).map_err(|e| e.to_string())?;
    let json = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    let out = path.with_extension("json");
    std::fs::write(&out, json).map_err(|e| format!("write failed: {e}"))?;
    Ok(out)
}
