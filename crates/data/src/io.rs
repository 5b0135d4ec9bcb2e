//! Minimal CSV import/export for point sets.
//!
//! Lets users run the examples and the figure harness on their own data
//! (e.g. the real NGSIM/PortoTaxi extracts, if they have them) instead of
//! the synthetic stand-ins. Format: one point per line, coordinates
//! separated by commas; `#`-prefixed lines are comments.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use fdbscan_geom::Point;

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line had the wrong number of fields, or a field that is not a
    /// finite `f32` (`NaN`, `inf` and out-of-range values included).
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Loads points from a CSV file (`D` columns per row).
pub fn load_csv<const D: usize>(path: &Path) -> Result<Vec<Point<D>>, CsvError> {
    let reader = BufReader::new(std::fs::File::open(path)?);
    let mut points = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() != D {
            return Err(CsvError::Parse {
                line: lineno + 1,
                message: format!("expected {D} fields, found {}", fields.len()),
            });
        }
        let mut coords = [0.0f32; D];
        for (c, field) in coords.iter_mut().zip(&fields) {
            let parsed = match field.parse::<f32>() {
                Ok(value) if value.is_finite() => Ok(value),
                Ok(_) => Err(format!("non-finite number {field:?}")),
                Err(e) => Err(format!("bad number {field:?}: {e}")),
            };
            *c = parsed.map_err(|message| CsvError::Parse { line: lineno + 1, message })?;
        }
        points.push(Point::new(coords));
    }
    Ok(points)
}

/// Saves points to a CSV file (`D` columns per row).
pub fn save_csv<const D: usize>(path: &Path, points: &[Point<D>]) -> Result<(), CsvError> {
    let mut writer = BufWriter::new(std::fs::File::create(path)?);
    for p in points {
        let row: Vec<String> = (0..D).map(|d| format!("{}", p[d])).collect();
        writeln!(writer, "{}", row.join(","))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdbscan_geom::{Point2, Point3};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fdbscan-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn round_trip_2d() {
        let path = tmp("rt2d.csv");
        let points = vec![Point2::new([1.5, -2.25]), Point2::new([0.0, 3.0])];
        save_csv(&path, &points).unwrap();
        let loaded: Vec<Point2> = load_csv(&path).unwrap();
        assert_eq!(loaded, points);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_3d() {
        let path = tmp("rt3d.csv");
        let points = vec![Point3::new([1.0, 2.0, 3.0])];
        save_csv(&path, &points).unwrap();
        let loaded: Vec<Point3> = load_csv(&path).unwrap();
        assert_eq!(loaded, points);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let path = tmp("comments.csv");
        std::fs::write(&path, "# header\n\n1.0, 2.0\n# trailing\n3.0,4.0\n").unwrap();
        let loaded: Vec<Point2> = load_csv(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_arity_is_reported_with_line() {
        let path = tmp("arity.csv");
        std::fs::write(&path, "1.0,2.0\n1.0\n").unwrap();
        let err = load_csv::<2>(&path).unwrap_err();
        assert!(err.to_string().contains("line 2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_number_is_reported() {
        let path = tmp("badnum.csv");
        std::fs::write(&path, "1.0,zebra\n").unwrap();
        let err = load_csv::<2>(&path).unwrap_err();
        assert!(err.to_string().contains("zebra"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_text_is_rejected_with_line() {
        // `f32::from_str` accepts all of these, and rounds 1e39 to inf.
        let path = tmp("nonfinite.csv");
        for text in ["NaN", "inf", "-inf", "infinity", "1e39"] {
            std::fs::write(&path, format!("1.0,2.0\n# comment\n3.0,{text}\n")).unwrap();
            let err = load_csv::<2>(&path).unwrap_err();
            assert!(matches!(err, CsvError::Parse { line: 3, .. }), "{text}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }
}
