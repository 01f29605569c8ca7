//! Trace persistence.
//!
//! Two formats:
//!
//! * **JSON** — the full [`FrameTrace`] via serde, self-describing.
//! * **Plain text** — one frame size (bits) per line, the format the
//!   original research traces (including Garrett's *Star Wars* trace) were
//!   distributed in; the frame interval is supplied out of band. If you
//!   have access to a real trace in this format it can be dropped straight
//!   into every experiment in this workspace.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

use crate::trace::FrameTrace;

/// Errors arising while loading a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// A text line failed to parse as a nonnegative number.
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// The offending line's trimmed content.
        content: String,
    },
    /// The file contained no frames.
    Empty,
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceIoError::Json(e) => write!(f, "trace JSON error: {e}"),
            TraceIoError::Parse { line, content } => {
                write!(f, "trace parse error at line {line}: {content:?}")
            }
            TraceIoError::Empty => write!(f, "trace file contains no frames"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Json(e)
    }
}

/// Save a trace as JSON.
pub fn save_json(trace: &FrameTrace, path: &Path) -> Result<(), TraceIoError> {
    let json = serde_json::to_string(trace)?;
    fs::write(path, json)?;
    Ok(())
}

/// Load a one-frame-size-per-line text trace. Blank lines and lines
/// starting with `#` are skipped; each remaining line must parse as a
/// nonnegative number of bits.
pub fn load_text(path: &Path, frame_interval: f64) -> Result<FrameTrace, TraceIoError> {
    let file = fs::File::open(path)?;
    let reader = BufReader::new(file);
    let mut bits = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match trimmed.parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => bits.push(v),
            _ => {
                return Err(TraceIoError::Parse {
                    line: i + 1,
                    content: trimmed.to_string(),
                })
            }
        }
    }
    if bits.is_empty() {
        return Err(TraceIoError::Empty);
    }
    Ok(FrameTrace::new(frame_interval, bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rcbr-traffic-io-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn json_roundtrip() {
        let tr = FrameTrace::new(1.0 / 24.0, vec![1.0, 2.5, 3.75]);
        let p = tmp("roundtrip.json");
        save_json(&tr, &p).unwrap();
        let back: FrameTrace = serde_json::from_str(&fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn text_loads_one_frame_per_line() {
        let tr = FrameTrace::new(0.04, vec![100.0, 0.0, 250.5]);
        let p = tmp("roundtrip.txt");
        fs::write(&p, "100\n0\n250.5\n").unwrap();
        let back = load_text(&p, 0.04).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn text_skips_comments_and_blanks() {
        let p = tmp("comments.txt");
        fs::write(&p, "# header\n100\n\n  200  \n# trailer\n").unwrap();
        let tr = load_text(&p, 1.0).unwrap();
        assert_eq!(tr.frames(), &[100.0, 200.0]);
    }

    #[test]
    fn text_reports_parse_errors_with_line_numbers() {
        let p = tmp("bad.txt");
        fs::write(&p, "100\nnot-a-number\n").unwrap();
        match load_text(&p, 1.0) {
            Err(TraceIoError::Parse { line, content }) => {
                assert_eq!(line, 2);
                assert_eq!(content, "not-a-number");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn negative_values_are_rejected() {
        let p = tmp("neg.txt");
        fs::write(&p, "-5\n").unwrap();
        assert!(matches!(
            load_text(&p, 1.0),
            Err(TraceIoError::Parse { .. })
        ));
    }

    #[test]
    fn empty_file_is_an_error() {
        let p = tmp("empty.txt");
        fs::write(&p, "# only a comment\n").unwrap();
        assert!(matches!(load_text(&p, 1.0), Err(TraceIoError::Empty)));
    }

    #[test]
    fn missing_file_is_io_error() {
        let p = tmp("does-not-exist.txt");
        let _ = fs::remove_file(&p);
        assert!(matches!(load_text(&p, 1.0), Err(TraceIoError::Io(_))));
    }
}
