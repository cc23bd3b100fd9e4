//! JSON export of experiment results.
//!
//! `paper_tables all --full` writes its results through these helpers, so
//! recorded numbers can always be regenerated and diffed.

use serde::Serialize;
use std::fs;
use std::io;
use std::path::Path;

/// Serializes any result structure to pretty-printed JSON.
///
/// # Panics
///
/// Panics if the value cannot be serialized (experiment result types in
/// this crate always can).
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("experiment results are serializable")
}

/// Writes a result structure as JSON at `path`, creating parent
/// directories.
///
/// # Errors
///
/// Returns any filesystem error.
pub fn save_json<T: Serialize>(value: &T, path: impl AsRef<Path>) -> io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, to_json(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Serialize)]
    struct Dummy {
        name: String,
        rates: BTreeMap<String, f64>,
    }

    #[test]
    fn json_round_trips_structure() {
        let mut rates = BTreeMap::new();
        rates.insert("dark".to_string(), 0.95);
        let d = Dummy {
            name: "pattern".into(),
            rates,
        };
        let json = to_json(&d);
        assert!(json.contains("\"pattern\""));
        assert!(json.contains("\"dark\""));
        let back: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(back["rates"]["dark"], 0.95);
    }

    #[test]
    fn save_json_creates_directories() {
        let dir = std::env::temp_dir().join("napmon_eval_report_test");
        let path = dir.join("nested").join("out.json");
        save_json(&vec![1, 2, 3], &path).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        fs::remove_dir_all(&dir).ok();
    }
}
