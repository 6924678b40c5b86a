//! Persistence of the engine's final product.
//!
//! *"The 2-D document coordinates comprise the final primary product"*
//! (§2.1 step 9, written to a file by the master process): a CSV of
//! `doc,x,y,cluster`, the file the ThemeView frontend consumes. (The
//! knowledge signatures of step 7 persist in the engine snapshot's `sigs`
//! section — see [`crate::snapshot`].)
//!
//! The reader turns malformed input into an [`io::Error`] naming the
//! file and the offending line — never a panic, never a silently partial
//! result.

use crate::DocId;
use std::io::{self, Write};
use std::path::Path;

fn data_err(path: &Path, what: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// Write the master's coordinate file: `doc,x,y,cluster` rows.
pub fn write_coords_csv(
    path: &Path,
    coords: &[(f64, f64)],
    assignments: Option<&[u32]>,
) -> io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "doc,x,y,cluster")?;
    for (i, (x, y)) in coords.iter().enumerate() {
        let c = assignments.map(|a| a[i] as i64).unwrap_or(-1);
        writeln!(f, "{i},{x:.9},{y:.9},{c}")?;
    }
    f.flush()
}

/// Read a coordinate file back: `(doc, x, y, cluster)` rows.
pub fn read_coords_csv(path: &Path) -> io::Result<Vec<(DocId, f64, f64, i64)>> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "doc,x,y,cluster")) => {}
        Some((_, other)) => {
            return Err(data_err(
                path,
                format!("line 1: bad header {other:?}, expected \"doc,x,y,cluster\""),
            ))
        }
        None => return Err(data_err(path, "empty coordinate file".into())),
    }
    let mut out = Vec::new();
    for (ln, line) in lines {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(data_err(
                path,
                format!(
                    "line {}: expected 4 comma-separated fields, found {} in {line:?}",
                    ln + 1,
                    fields.len()
                ),
            ));
        }
        let num = |col: usize, name: &str| -> io::Result<f64> {
            fields[col].parse().map_err(|_| {
                data_err(
                    path,
                    format!(
                        "line {}: non-numeric {name} field {:?}",
                        ln + 1,
                        fields[col]
                    ),
                )
            })
        };
        let doc: DocId = fields[0].parse().map_err(|_| {
            data_err(
                path,
                format!("line {}: non-numeric doc field {:?}", ln + 1, fields[0]),
            )
        })?;
        let x = num(1, "x")?;
        let y = num(2, "y")?;
        let c: i64 = fields[3].parse().map_err(|_| {
            data_err(
                path,
                format!("line {}: non-numeric cluster field {:?}", ln + 1, fields[3]),
            )
        })?;
        out.push((doc, x, y, c));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("inspire-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn coords_roundtrip() {
        let path = tmp("coords.csv");
        let coords = vec![(1.25, -3.5), (0.0, 0.000000001), (1e9, -1e-9)];
        let assignments = vec![2u32, 0, 7];
        write_coords_csv(&path, &coords, Some(&assignments)).unwrap();
        let back = read_coords_csv(&path).unwrap();
        assert_eq!(back.len(), 3);
        for (i, (doc, x, y, c)) in back.iter().enumerate() {
            assert_eq!(*doc as usize, i);
            assert!((x - coords[i].0).abs() < 1e-6 * coords[i].0.abs().max(1.0));
            assert!((y - coords[i].1).abs() < 1e-6);
            assert_eq!(*c, assignments[i] as i64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coords_without_assignments_use_sentinel() {
        let path = tmp("coords2.csv");
        write_coords_csv(&path, &[(1.0, 2.0)], None).unwrap();
        let back = read_coords_csv(&path).unwrap();
        assert_eq!(back[0].3, -1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coords_reader_rejects_bad_header() {
        let path = tmp("badhdr.csv");
        std::fs::write(&path, "x,y\n1,2\n").unwrap();
        let err = read_coords_csv(&path).unwrap_err();
        assert!(err.to_string().contains("badhdr.csv"), "{err}");
        std::fs::write(&path, "").unwrap();
        assert!(read_coords_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn coords_reader_names_offending_line_and_field() {
        let path = tmp("badrow.csv");
        std::fs::write(&path, "doc,x,y,cluster\n0,1.0,2.0,3\n1,oops,2.0,3\n").unwrap();
        let err = read_coords_csv(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("badrow.csv"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("oops"), "{msg}");
        // Row with the wrong number of fields.
        std::fs::write(&path, "doc,x,y,cluster\n0,1.0,2.0\n").unwrap();
        let err = read_coords_csv(&path).unwrap_err();
        assert!(err.to_string().contains("expected 4"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
