//! Sharded sweep execution: strided point assignment, a line-delimited
//! JSON row codec with bit-exact `f64` round-tripping, and the
//! deterministic reduce-and-broadcast merge that makes a K-process sweep
//! byte-identical to the single-process one.
//!
//! The contract is exactness end to end. A shard serializes each row it
//! computed as one NDJSON line tagged with the row's global grid index;
//! floats are rendered with Rust's shortest-round-trip `Display`, so
//! `parse(format(x)) == x` bit for bit. The merge sorts by index, demands
//! every index exactly once (a crashed or double-counted shard is a typed
//! [`ModelError::BadConfig`], never a silently short table), and re-emits
//! the rows — which therefore serialize to the very bytes a single-process
//! sweep would have produced. `ci.sh` enforces that equality with a
//! byte-for-byte diff.

use parbounds_models::{ModelError, QsmMachine, Result};
use parbounds_tables::{Model, Params, Problem};

use crate::experiment::{qsm_time_row_on, sqsm_time_row_on, TableRow};
use crate::sweep::Point;

/// The grid indices shard `shard_id` of `shards` owns: the strided set
/// `{shard_id, shard_id + shards, …}`. Striding (rather than contiguous
/// blocks) balances the large-`n` tail of a grid across shards.
pub fn shard_indices(total: usize, shards: usize, shard_id: usize) -> Result<Vec<usize>> {
    validate_shards(shards, Some(shard_id))?;
    Ok((shard_id..total).step_by(shards).collect())
}

/// Validates `--shards K [--shard-id i]` as typed errors: zero shards and
/// out-of-range shard ids are configuration bugs worth naming precisely.
pub fn validate_shards(shards: usize, shard_id: Option<usize>) -> Result<()> {
    if shards == 0 {
        return Err(ModelError::BadConfig(
            "--shards must be positive (got 0)".into(),
        ));
    }
    if let Some(id) = shard_id {
        if id >= shards {
            return Err(ModelError::BadConfig(format!(
                "--shard-id {id} out of range: must be < --shards {shards}"
            )));
        }
    }
    Ok(())
}

/// Computes the sweep row for one grid point on the named shared-memory
/// model. Machines carry a streaming ledger (rows only read aggregates).
pub fn sweep_point_row(model: Model, problem: Problem, pt: &Point, seed: u64) -> Result<TableRow> {
    let machine = match model {
        Model::Qsm => QsmMachine::qsm(pt.g),
        Model::SQsm => QsmMachine::sqsm(pt.g),
        Model::Bsp => {
            return Err(ModelError::BadConfig(
                "sharded sweeps cover the shared-memory models (qsm, sqsm)".into(),
            ))
        }
    };
    let machine = machine.with_streaming_ledger();
    match model {
        Model::Qsm => qsm_time_row_on(&machine, problem, pt.n, seed),
        _ => sqsm_time_row_on(&machine, problem, pt.n, seed),
    }
}

/// Runs one shard's slice of the grid: the strided indices of
/// [`shard_indices`], each paired with its computed row.
pub fn sweep_shard_rows(
    model: Model,
    problem: Problem,
    points: &[Point],
    shards: usize,
    shard_id: usize,
    seed: u64,
) -> Result<Vec<(usize, TableRow)>> {
    shard_indices(points.len(), shards, shard_id)?
        .into_iter()
        .map(|i| sweep_point_row(model, problem, &points[i], seed).map(|row| (i, row)))
        .collect()
}

/// Merges shard outputs back into grid order. Every index in `0..total`
/// must appear exactly once across the shards; anything else — a lost
/// line, a duplicated index, an index past the grid — is a typed error.
pub fn merge_shards(mut rows: Vec<(usize, TableRow)>, total: usize) -> Result<Vec<TableRow>> {
    if rows.len() != total {
        return Err(ModelError::BadConfig(format!(
            "shard merge expected {total} rows, got {} (a shard lost or duplicated work)",
            rows.len()
        )));
    }
    rows.sort_by_key(|(i, _)| *i);
    for (expect, (got, _)) in rows.iter().enumerate() {
        if *got != expect {
            return Err(ModelError::BadConfig(format!(
                "shard merge is missing grid index {expect} (saw {got})"
            )));
        }
    }
    Ok(rows.into_iter().map(|(_, row)| row).collect())
}

/// The problem's wire tag (also the CLI spelling).
pub fn problem_tag(problem: Problem) -> &'static str {
    match problem {
        Problem::Lac => "lac",
        Problem::Or => "or",
        Problem::Parity => "parity",
    }
}

/// Parses a problem wire tag.
pub fn parse_problem(tag: &str) -> Result<Problem> {
    match tag {
        "lac" => Ok(Problem::Lac),
        "or" => Ok(Problem::Or),
        "parity" => Ok(Problem::Parity),
        other => Err(ModelError::BadConfig(format!(
            "unknown problem '{other}' (expected parity|or|lac)"
        ))),
    }
}

/// The model's wire tag (also the CLI spelling).
pub fn model_tag(model: Model) -> &'static str {
    match model {
        Model::Qsm => "qsm",
        Model::SQsm => "sqsm",
        Model::Bsp => "bsp",
    }
}

/// Parses a model wire tag.
pub fn parse_model(tag: &str) -> Result<Model> {
    match tag {
        "qsm" => Ok(Model::Qsm),
        "sqsm" => Ok(Model::SQsm),
        "bsp" => Ok(Model::Bsp),
        other => Err(ModelError::BadConfig(format!(
            "unknown model '{other}' (expected qsm|sqsm|bsp)"
        ))),
    }
}

/// Every algorithm name a row generator can emit. [`TableRow::algorithm`]
/// is `&'static str`, so decoding interns against this closed set — an
/// unknown name in a shard line means a version-skewed child binary, which
/// deserves a loud typed error rather than a silently re-labelled row.
const ALGORITHM_NAMES: &[&str] = &[
    "pattern-helper parity (k = log g)",
    "write-combining OR tree (k = g)",
    "accelerated dart LAC (h = n/8)",
    "binary read tree (Θ(g·log n))",
    "binary write tree",
    "fan-in L/g reduction tree",
    "message dart-throwing LAC",
];

fn intern_algorithm(name: &str) -> Result<&'static str> {
    ALGORITHM_NAMES
        .iter()
        .find(|&&known| known == name)
        .copied()
        .ok_or_else(|| {
            ModelError::BadConfig(format!(
                "unknown algorithm name '{name}' in shard line (version-skewed shard binary?)"
            ))
        })
}

/// Renders an `f64` so that parsing the text reproduces the exact bits:
/// Rust's `Display` for floats is the shortest representation that
/// round-trips, which is precisely the property the byte-identical merge
/// rests on. (Not JSON-strict: non-finite bounds render as `NaN`/`inf`,
/// which `f64::from_str` accepts back.)
fn fmt_f64(x: f64) -> String {
    format!("{x}")
}

fn parse_f64(tok: &str, key: &str) -> Result<f64> {
    tok.parse::<f64>().map_err(|_| {
        ModelError::BadConfig(format!(
            "shard line field '{key}': unparsable number '{tok}'"
        ))
    })
}

/// Encodes one `(grid index, row)` pair as a single NDJSON line. Field
/// order is fixed, so equal rows encode to equal bytes.
pub fn encode_row(index: usize, row: &TableRow) -> String {
    let measured = match row.measured {
        Some(m) => fmt_f64(m),
        None => "null".into(),
    };
    format!(
        concat!(
            "{{\"i\":{},\"problem\":\"{}\",\"model\":\"{}\",",
            "\"n\":{},\"g\":{},\"l\":{},\"p\":{},",
            "\"det_lb\":{},\"rand_lb\":{},\"upper\":{},\"measured\":{},",
            "\"algorithm\":\"{}\"}}"
        ),
        index,
        problem_tag(row.problem),
        model_tag(row.model),
        fmt_f64(row.params.n),
        fmt_f64(row.params.g),
        fmt_f64(row.params.l),
        fmt_f64(row.params.p),
        fmt_f64(row.det_lb),
        fmt_f64(row.rand_lb),
        fmt_f64(row.upper_formula),
        measured,
        row.algorithm,
    )
}

/// Decodes one NDJSON shard line back into `(grid index, row)`.
pub fn decode_row(line: &str) -> Result<(usize, TableRow)> {
    let fields = parse_flat_object(line)?;
    let get = |key: &str| -> Result<&str> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| ModelError::BadConfig(format!("shard line is missing field '{key}'")))
    };
    let index = get("i")?
        .parse::<usize>()
        .map_err(|_| ModelError::BadConfig(format!("bad shard index '{}'", get("i").unwrap())))?;
    let measured = match get("measured")? {
        "null" => None,
        tok => Some(parse_f64(tok, "measured")?),
    };
    let row = TableRow {
        problem: parse_problem(get("problem")?)?,
        model: parse_model(get("model")?)?,
        params: Params {
            n: parse_f64(get("n")?, "n")?,
            g: parse_f64(get("g")?, "g")?,
            l: parse_f64(get("l")?, "l")?,
            p: parse_f64(get("p")?, "p")?,
        },
        det_lb: parse_f64(get("det_lb")?, "det_lb")?,
        rand_lb: parse_f64(get("rand_lb")?, "rand_lb")?,
        upper_formula: parse_f64(get("upper")?, "upper")?,
        measured,
        algorithm: intern_algorithm(get("algorithm")?)?,
    };
    Ok((index, row))
}

/// Parses one flat (depth-1) JSON object into `(key, raw value)` pairs —
/// string values are unquoted/unescaped, everything else is the raw token.
/// Exactly the subset [`encode_row`] emits; anything nested is rejected.
fn parse_flat_object(line: &str) -> Result<Vec<(String, String)>> {
    let bad = |msg: &str| ModelError::BadConfig(format!("malformed shard line ({msg}): {line}"));
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err(bad("expected '{'"));
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            _ => return Err(bad("expected key string")),
        }
        let key = parse_string(&mut chars).ok_or_else(|| bad("unterminated key"))?;
        if chars.next() != Some(':') {
            return Err(bad("expected ':'"));
        }
        let value = if chars.peek() == Some(&'"') {
            parse_string(&mut chars).ok_or_else(|| bad("unterminated string value"))?
        } else {
            let mut tok = String::new();
            while let Some(&c) = chars.peek() {
                if c == ',' || c == '}' {
                    break;
                }
                if c == '{' || c == '[' {
                    return Err(bad("nested value"));
                }
                tok.push(c);
                chars.next();
            }
            tok
        };
        fields.push((key, value));
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            _ => return Err(bad("expected ',' or '}'")),
        }
    }
    if chars.next().is_some() {
        return Err(bad("trailing garbage"));
    }
    Ok(fields)
}

/// Parses a quoted JSON string (cursor on the opening quote), handling the
/// two escapes the encoder can emit (`\"`, `\\`).
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next() != Some('"') {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::grid;

    #[test]
    fn strided_indices_partition_the_grid() {
        let a = shard_indices(10, 3, 0).unwrap();
        let b = shard_indices(10, 3, 1).unwrap();
        let c = shard_indices(10, 3, 2).unwrap();
        assert_eq!(a, vec![0, 3, 6, 9]);
        assert_eq!(b, vec![1, 4, 7]);
        assert_eq!(c, vec![2, 5, 8]);
        let mut all: Vec<usize> = a.into_iter().chain(b).chain(c).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shard_validation_is_typed() {
        let err = validate_shards(0, None).unwrap_err();
        assert!(matches!(err, ModelError::BadConfig(_)), "{err}");
        let err = validate_shards(2, Some(2)).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(validate_shards(2, Some(1)).is_ok());
    }

    #[test]
    fn row_codec_round_trips_bit_exactly() {
        let points = grid(&[1 << 8], &[2, 8]);
        for (i, pt) in points.iter().enumerate() {
            for problem in [Problem::Parity, Problem::Or, Problem::Lac] {
                let row = sweep_point_row(Model::Qsm, problem, pt, 7).unwrap();
                let line = encode_row(i, &row);
                let (j, back) = decode_row(&line).unwrap();
                assert_eq!(j, i);
                assert_eq!(back, row, "decode(encode) must be identity: {line}");
                // Re-encoding reproduces the exact bytes — the property the
                // parent's byte-identical merge rests on.
                assert_eq!(encode_row(j, &back), line);
            }
        }
    }

    #[test]
    fn codec_preserves_non_finite_and_missing_fields() {
        let row = TableRow {
            problem: Problem::Parity,
            model: Model::SQsm,
            params: Params {
                n: 256.0,
                g: 2.0,
                l: 16.0,
                p: 256.0,
            },
            det_lb: f64::NAN,
            rand_lb: f64::INFINITY,
            upper_formula: 12.5,
            measured: None,
            algorithm: "binary write tree",
        };
        let line = encode_row(3, &row);
        let (i, back) = decode_row(&line).unwrap();
        assert_eq!(i, 3);
        assert!(back.det_lb.is_nan());
        assert!(back.rand_lb.is_infinite());
        assert_eq!(back.measured, None);
        assert_eq!(encode_row(i, &back), line);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"i":0}"#,
            r#"{"i":0,"problem":"blorp","model":"qsm","n":1,"g":1,"l":1,"p":1,"det_lb":1,"rand_lb":1,"upper":1,"measured":1,"algorithm":"binary write tree"}"#,
            r#"{"i":0,"problem":"or","model":"qsm","n":1,"g":1,"l":1,"p":1,"det_lb":1,"rand_lb":1,"upper":1,"measured":1,"algorithm":"made-up algorithm"}"#,
        ] {
            let err = decode_row(bad).unwrap_err();
            assert!(matches!(err, ModelError::BadConfig(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn sharded_rows_merge_to_the_single_process_sweep() {
        let points = grid(&[1 << 8, 1 << 10], &[2, 8]);
        let single: Vec<TableRow> = points
            .iter()
            .map(|pt| sweep_point_row(Model::SQsm, Problem::Parity, pt, 11).unwrap())
            .collect();
        let mut collected = Vec::new();
        for shard_id in 0..3 {
            // Through the wire format, exactly as the parent process sees it.
            for (i, row) in
                sweep_shard_rows(Model::SQsm, Problem::Parity, &points, 3, shard_id, 11).unwrap()
            {
                collected.push(decode_row(&encode_row(i, &row)).unwrap());
            }
        }
        let merged = merge_shards(collected, points.len()).unwrap();
        assert_eq!(merged, single);
    }

    #[test]
    fn merge_rejects_missing_and_duplicate_indices() {
        let points = grid(&[1 << 8], &[2]);
        let row = sweep_point_row(Model::Qsm, Problem::Or, &points[0], 5).unwrap();
        let err = merge_shards(vec![(0, row.clone())], 2).unwrap_err();
        assert!(err.to_string().contains("expected 2 rows"), "{err}");
        let err = merge_shards(vec![(0, row.clone()), (0, row)], 2).unwrap_err();
        assert!(err.to_string().contains("missing grid index 1"), "{err}");
    }

    #[test]
    fn reference_and_dense_sweep_rows_agree() {
        let pt = grid(&[1 << 8], &[4])[0];
        let dense = sweep_point_row(Model::Qsm, Problem::Or, &pt, 9).unwrap();
        let machine = QsmMachine::qsm(pt.g)
            .with_streaming_ledger()
            .with_reference_routing();
        let reference = qsm_time_row_on(&machine, Problem::Or, pt.n, 9).unwrap();
        assert_eq!(dense, reference);
    }

    #[test]
    fn bsp_sweeps_are_rejected_with_a_typed_error() {
        let pt = grid(&[64], &[2])[0];
        let err = sweep_point_row(Model::Bsp, Problem::Or, &pt, 1).unwrap_err();
        assert!(matches!(err, ModelError::BadConfig(_)), "{err}");
    }
}
