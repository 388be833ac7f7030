//! The PHYLIP sequential alignment format.
//!
//! Section 5.1.1: "the sequence data are expected to be in the PHYLIP
//! genealogical data format, in which the first line provides the number of
//! samples and the length of the samples. Each successive line leads with a
//! fixed-length name of the sample followed by the sequence data."
//!
//! The parser accepts both the classical fixed-width 10-character name field
//! and the relaxed whitespace-separated variant, and tolerates sequences
//! wrapped over multiple lines (sequential, not interleaved).

use crate::alignment::Alignment;
use crate::error::PhyloError;
use crate::nucleotide::Nucleotide;
use crate::sequence::Sequence;

/// Width of the classical PHYLIP name field.
const NAME_WIDTH: usize = 10;

/// Parse a PHYLIP-format alignment from text.
pub fn parse_phylip(text: &str) -> Result<Alignment, PhyloError> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (header_line_no, header) = lines
        .next()
        .ok_or_else(|| PhyloError::Parse { line: 0, message: "empty PHYLIP input".into() })?;
    let mut header_fields = header.split_whitespace();
    let n_seqs: usize =
        header_fields.next().and_then(|f| f.parse().ok()).ok_or_else(|| PhyloError::Parse {
            line: header_line_no + 1,
            message: "header must start with the sequence count".into(),
        })?;
    let n_sites: usize =
        header_fields.next().and_then(|f| f.parse().ok()).ok_or_else(|| PhyloError::Parse {
            line: header_line_no + 1,
            message: "header must give the sequence length".into(),
        })?;
    if n_seqs == 0 || n_sites == 0 {
        return Err(PhyloError::Parse {
            line: header_line_no + 1,
            message: format!("degenerate dimensions {n_seqs} x {n_sites}"),
        });
    }

    // The header is untrusted: every sequence and every site takes at least
    // one byte of input, so the input's length bounds what is worth
    // reserving (a header asking for 2^64 sites is a parse error below, not
    // a capacity-overflow panic here).
    let mut sequences: Vec<Sequence> = Vec::with_capacity(n_seqs.min(text.len()));
    let mut current_name: Option<String> = None;
    let mut current_bases: Vec<Nucleotide> = Vec::with_capacity(n_sites.min(text.len()));

    let flush = |name: Option<String>, bases: &mut Vec<Nucleotide>, seqs: &mut Vec<Sequence>| {
        if let Some(name) = name {
            seqs.push(Sequence::new(name, std::mem::take(bases)));
        }
    };

    for (line_no, raw_line) in lines {
        let line = raw_line.trim_end();
        let starting_new_sequence = current_name.is_none() || current_bases.len() >= n_sites;
        if starting_new_sequence {
            flush(current_name.take(), &mut current_bases, &mut sequences);
            if sequences.len() == n_seqs {
                break;
            }
            // Name field: classical fixed width if the line is long enough
            // and the 10th column boundary splits cleanly, otherwise the
            // first whitespace-delimited token.
            let (name, rest) = split_name(line);
            if name.is_empty() {
                return Err(PhyloError::Parse {
                    line: line_no + 1,
                    message: "expected a sequence name".into(),
                });
            }
            current_name = Some(name);
            append_bases(rest, line_no, &mut current_bases)?;
        } else {
            append_bases(line, line_no, &mut current_bases)?;
        }
    }
    flush(current_name.take(), &mut current_bases, &mut sequences);

    if sequences.len() != n_seqs {
        return Err(PhyloError::Parse {
            line: 0,
            message: format!("header promised {n_seqs} sequences, found {}", sequences.len()),
        });
    }
    for seq in &sequences {
        if seq.len() != n_sites {
            return Err(PhyloError::Parse {
                line: 0,
                message: format!(
                    "sequence {:?} has {} sites, header promised {}",
                    seq.name(),
                    seq.len(),
                    n_sites
                ),
            });
        }
    }
    Alignment::new(sequences)
}

fn split_name(line: &str) -> (String, &str) {
    // Relaxed format: name is the first whitespace-delimited token when the
    // line contains interior whitespace before the sequence data.
    if let Some(pos) = line.find(char::is_whitespace) {
        let (name, rest) = line.split_at(pos);
        return (name.trim().to_string(), rest);
    }
    // Strict format: the first NAME_WIDTH characters (not bytes) are the
    // name, so a multi-byte character never straddles the split.
    match line.char_indices().nth(NAME_WIDTH) {
        Some((split, _)) => {
            let (name, rest) = line.split_at(split);
            (name.trim().to_string(), rest)
        }
        None => (line.trim().to_string(), ""),
    }
}

fn append_bases(text: &str, line_no: usize, bases: &mut Vec<Nucleotide>) -> Result<(), PhyloError> {
    for c in text.chars().filter(|c| !c.is_whitespace()) {
        let base = Nucleotide::from_char(c).ok_or_else(|| PhyloError::Parse {
            line: line_no + 1,
            message: format!("invalid nucleotide character {c:?}"),
        })?;
        bases.push(base);
    }
    Ok(())
}

/// Render an alignment in PHYLIP sequential format with the classical
/// 10-character name field.
pub fn write_phylip(alignment: &Alignment) -> String {
    let mut out = String::new();
    out.push_str(&format!(" {} {}\n", alignment.n_sequences(), alignment.n_sites()));
    for seq in alignment.sequences() {
        let mut name = seq.name().to_string();
        name.truncate(NAME_WIDTH);
        out.push_str(&format!("{name:<NAME_WIDTH$}{}\n", seq.to_letters()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
 3 12
seq_one   ACGTACGTACGT
seq_two   ACGTACGAACGT
seq_three ACGTTCGTACGA
";

    #[test]
    fn parses_relaxed_format() {
        let a = parse_phylip(SAMPLE).unwrap();
        assert_eq!(a.n_sequences(), 3);
        assert_eq!(a.n_sites(), 12);
        assert_eq!(a.sequence(0).name(), "seq_one");
        assert_eq!(a.sequence(2).to_letters(), "ACGTTCGTACGA");
    }

    #[test]
    fn parses_strict_fixed_width_names() {
        let strict = " 2 8\nsample0001ACGTACGT\nsample0002ACGTACGA\n";
        let a = parse_phylip(strict).unwrap();
        assert_eq!(a.sequence(0).name(), "sample0001");
        assert_eq!(a.sequence(0).to_letters(), "ACGTACGT");
        assert_eq!(a.sequence(1).name(), "sample0002");
    }

    #[test]
    fn parses_wrapped_sequences() {
        let wrapped = " 2 12\ns1  ACGTAC\nGTACGT\ns2  ACGTAC\nGAACGT\n";
        let a = parse_phylip(wrapped).unwrap();
        assert_eq!(a.n_sites(), 12);
        assert_eq!(a.sequence(0).to_letters(), "ACGTACGTACGT");
        assert_eq!(a.sequence(1).to_letters(), "ACGTACGAACGT");
    }

    #[test]
    fn round_trip_through_writer() {
        let a = parse_phylip(SAMPLE).unwrap();
        let text = write_phylip(&a);
        let b = parse_phylip(&text).unwrap();
        assert_eq!(a, b);
        assert!(text.starts_with(" 3 12\n"));
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(parse_phylip("").is_err());
        assert!(parse_phylip("nonsense\n").is_err());
        assert!(parse_phylip("3\nseq ACGT\n").is_err());
        assert!(parse_phylip(" 0 10\n").is_err());
    }

    #[test]
    fn rejects_inconsistent_bodies() {
        // Too few sequences.
        assert!(parse_phylip(" 3 4\ns1 ACGT\ns2 ACGT\n").is_err());
        // Wrong length.
        assert!(parse_phylip(" 2 5\ns1 ACGT\ns2 ACGTA\n").is_err());
        // Invalid character.
        let err = parse_phylip(" 1 4\ns1 ACGX\n").unwrap_err();
        match err {
            PhyloError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("'X'"), "unpointed error: {message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn strict_names_split_at_the_tenth_character_not_byte() {
        // Ten three-byte characters: byte 10 is inside the fourth one.
        let a = parse_phylip(" 2 4\n€€€€€€€€€€ACGT\nb         ACGA\n").unwrap();
        assert_eq!(a.sequence(0).name(), "€€€€€€€€€€");
        assert_eq!(a.sequence(0).to_letters(), "ACGT");
        // Four of them and the bases fill the name field: a pointed error.
        let err = parse_phylip(" 1 4\n€€€€ACGT\n").unwrap_err();
        assert!(err.to_string().contains("sites"), "{err}");
        let err = parse_phylip(" 1 4\n€€€€ACGTACGTA\n").unwrap_err();
        assert!(err.to_string().contains("\"€€€€ACGTAC\" has 3 sites"), "{err}");
    }

    #[test]
    fn header_counts_do_not_size_allocations() {
        let max = usize::MAX;
        for text in [
            format!(" {max} 4\ns1 ACGT\n"),
            format!(" 1 {max}\ns1 ACGT\n"),
            format!(" {max} {max}\ns1 ACGT\n"),
        ] {
            let err = parse_phylip(&text).unwrap_err();
            assert!(err.to_string().contains("promised"), "{err}");
        }
    }

    #[test]
    fn long_names_are_truncated_on_write() {
        let a = Alignment::from_letters(&[("a_very_long_sequence_name", "ACGT")]).unwrap();
        let text = write_phylip(&a);
        let b = parse_phylip(&text).unwrap();
        assert_eq!(b.sequence(0).name(), "a_very_lon");
        assert_eq!(b.sequence(0).to_letters(), "ACGT");
    }
}
