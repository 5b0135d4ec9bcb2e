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
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fdbscan-io-{}-{name}", std::process::id()))
    }

    /// Any finite `f32` bit pattern, signed zeros and subnormals
    /// included: clearing the top exponent bit of a NaN or an infinity
    /// leaves a finite number.
    fn finite_f32() -> impl Strategy<Value = f32> {
        any::<u32>().prop_map(|bits| {
            let x = f32::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                f32::from_bits(bits & !(1 << 30))
            }
        })
    }

    fn points<const D: usize>(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Point<D>>> {
        collection::vec(collection::vec(finite_f32(), D), len).prop_map(|rows| {
            rows.into_iter().map(|row| Point::new(std::array::from_fn(|d| row[d]))).collect()
        })
    }

    fn bits<const D: usize>(points: &[Point<D>]) -> Vec<[u32; D]> {
        points.iter().map(|p| p.coords.map(f32::to_bits)).collect()
    }

    fn check_round_trip<const D: usize>(points: &[Point<D>]) -> Result<(), String> {
        let path = tmp(&format!("prop-rt{D}d.csv"));
        save_csv(&path, points).map_err(|e| e.to_string())?;
        let loaded = load_csv::<D>(&path).map_err(|e| e.to_string());
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(bits(&loaded?), bits(points));
        Ok(())
    }

    /// Writes `rows` with a comment or a blank line before some of them
    /// (`extra[i]` 0 or 1), inserts a `k`-field row before line `at`
    /// (clamped to the end), and checks the load fails on that line.
    fn check_wrong_arity<const D: usize>(
        rows: &[Point<D>],
        extra: &[u8],
        at: usize,
        k: usize,
    ) -> Result<(), String> {
        let mut lines = Vec::new();
        for (p, &extra) in rows.iter().zip(extra) {
            match extra {
                0 => lines.push("# comment".to_string()),
                1 => lines.push(String::new()),
                _ => {}
            }
            lines.push(p.coords.map(|x| x.to_string()).join(","));
        }
        let at = at.min(lines.len());
        lines.insert(at, vec!["1.5"; k].join(", "));
        let path = tmp(&format!("prop-arity{D}d.csv"));
        std::fs::write(&path, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
        let loaded = load_csv::<D>(&path);
        std::fs::remove_file(&path).ok();
        match loaded {
            Err(CsvError::Parse { line, .. }) => prop_assert_eq!(line, at + 1),
            other => prop_assert!(false, "{k} fields at line {}: {other:?}", at + 1),
        }
        Ok(())
    }

    /// Saves `rows`, cuts the file after `cut` bytes (modulo its length
    /// plus one) and loads the rest: a clean load parses a prefix of the
    /// rows (the last one possibly cut short), and a failure is a parse
    /// error on a line inside the cut file.
    fn check_truncation<const D: usize>(rows: &[Point<D>], cut: usize) -> Result<(), String> {
        let path = tmp(&format!("prop-cut{D}d.csv"));
        save_csv(&path, rows).map_err(|e| e.to_string())?;
        let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        bytes.truncate(cut % (bytes.len() + 1));
        std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
        let lines = bytes.split(|&b| b == b'\n').filter(|line| !line.is_empty()).count();
        let loaded = load_csv::<D>(&path);
        std::fs::remove_file(&path).ok();
        match loaded {
            Ok(loaded) => {
                prop_assert!(
                    loaded.len() <= rows.len(),
                    "{} rows from {}",
                    loaded.len(),
                    rows.len()
                );
                let whole = loaded.len().saturating_sub(1);
                prop_assert_eq!(bits(&loaded[..whole]), bits(&rows[..whole]));
            }
            Err(CsvError::Parse { line, .. }) => {
                prop_assert!((1..=lines).contains(&line), "line {line} of {lines}");
            }
            Err(other) => prop_assert!(false, "cut at {} bytes: {other}", bytes.len()),
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn finite_points_round_trip_bit_for_bit(
            flat in points::<2>(0..40),
            solid in points::<3>(0..40),
        ) {
            check_round_trip(&flat)?;
            check_round_trip(&solid)?;
        }

        #[test]
        fn a_row_of_the_wrong_arity_fails_at_its_line(
            flat in points::<2>(0..20),
            solid in points::<3>(0..20),
            extra in collection::vec(0u8..4, 20),
            at in 0usize..45,
            k in 1usize..4,
        ) {
            // k fields, never D: 1..3 skips past D to D + 1.
            let arity = |d: usize| if k >= d { k + 1 } else { k };
            check_wrong_arity(&flat, &extra, at, arity(2))?;
            check_wrong_arity(&solid, &extra, at, arity(3))?;
        }

        #[test]
        fn a_file_cut_at_any_byte_loads_or_names_a_line_inside_it(
            flat in points::<2>(1..12),
            solid in points::<3>(1..12),
            cut in any::<usize>(),
        ) {
            check_truncation(&flat, cut)?;
            check_truncation(&solid, cut)?;
        }
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
