//! Jaro and Jaro–Winkler similarity.

/// Strings up to this many chars are compared in stack buffers; longer ones
/// allocate. Reconciliation compares names and address local parts, which
/// fit, millions of times per build.
const SHORT: usize = 64;

/// Jaro similarity in `[0, 1]`.
///
/// Matches are characters equal within the standard window
/// `max(|a|,|b|)/2 - 1`; transpositions are half-counted per the classic
/// definition. Empty-vs-empty is 1, empty-vs-nonempty is 0.
pub fn jaro(a: &str, b: &str) -> f64 {
    let (mut ca, mut cb) = (['\0'; SHORT], ['\0'; SHORT]);
    match (chars_into(a, &mut ca), chars_into(b, &mut cb)) {
        (Some(la), Some(lb)) => jaro_chars(
            &ca[..la],
            &cb[..lb],
            &mut [false; SHORT],
            &mut ['\0'; SHORT],
        ),
        _ => {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            jaro_chars(&a, &b, &mut vec![false; b.len()], &mut vec!['\0'; a.len()])
        }
    }
}

/// The chars of `s` into `buf`, or `None` when they do not fit.
fn chars_into(s: &str, buf: &mut [char; SHORT]) -> Option<usize> {
    let mut n = 0;
    for c in s.chars() {
        *buf.get_mut(n)? = c;
        n += 1;
    }
    Some(n)
}

/// [`jaro`] over char slices, with scratch for `b`'s used flags (at least
/// `b.len()`) and `a`'s matched chars (at least `a.len()`).
fn jaro_chars(a: &[char], b: &[char], b_used: &mut [bool], matches_a: &mut [char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a == b {
        return 1.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut m = 0;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                matches_a[m] = ca;
                m += 1;
                break;
            }
        }
    }
    if m == 0 {
        return 0.0;
    }
    // Matched chars of `b`, in `b`'s order, against those of `a`.
    let matches_b = b.iter().zip(&b_used[..b.len()]).filter(|(_, &u)| u);
    let transpositions = matches_a[..m]
        .iter()
        .zip(matches_b)
        .filter(|(x, (y, _))| x != y)
        .count()
        / 2;
    let m = m as f64;
    let t = transpositions as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Jaro–Winkler similarity: Jaro boosted by up to 4 characters of common
/// prefix with the standard scaling factor 0.1.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn classic_examples() {
        assert!(close(jaro("MARTHA", "MARHTA"), 0.944_444_444_444_444_4));
        assert!(close(jaro("DIXON", "DICKSONX"), 0.766_666_666_666_666_6));
        assert!(close(
            jaro("JELLYFISH", "SMELLYFISH"),
            0.896_296_296_296_296_2
        ));
        assert!(close(
            jaro_winkler("MARTHA", "MARHTA"),
            0.961_111_111_111_111_1
        ));
        assert!(close(
            jaro_winkler("DIXON", "DICKSONX"),
            0.813_333_333_333_333_3
        ));
    }

    #[test]
    fn edge_cases() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "a"), 0.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("same", "same"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn winkler_boosts_prefix_matches() {
        // Same Jaro-level difference, but a shared prefix scores higher.
        assert!(jaro_winkler("halevy", "halevi") > jaro_winkler("yhalev", "ihalev"));
    }

    /// The allocating implementation the stack-buffer one replaced.
    fn jaro_reference(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        if a == b {
            return 1.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        let mut matches_a: Vec<char> = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == ca {
                    b_used[j] = true;
                    matches_a.push(ca);
                    break;
                }
            }
        }
        let m = matches_a.len();
        if m == 0 {
            return 0.0;
        }
        let matches_b: Vec<char> = b
            .iter()
            .zip(b_used.iter())
            .filter(|(_, &u)| u)
            .map(|(&c, _)| c)
            .collect();
        let transpositions = matches_a
            .iter()
            .zip(matches_b.iter())
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        let t = transpositions as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }

    proptest! {
        /// Same bits as the allocating implementation, on both sides of
        /// the stack-buffer length and with multi-byte chars.
        #[test]
        fn matches_the_allocating_implementation(
            a in "[a-dé\\-. ]{0,70}",
            b in "[a-dé\\-. ]{0,70}",
        ) {
            prop_assert_eq!(jaro(&a, &b).to_bits(), jaro_reference(&a, &b).to_bits());
        }

        #[test]
        fn bounds_and_symmetry(a in "[a-f]{0,16}", b in "[a-f]{0,16}") {
            let j = jaro(&a, &b);
            let w = jaro_winkler(&a, &b);
            prop_assert!((0.0..=1.0).contains(&j));
            prop_assert!((0.0..=1.0).contains(&w));
            prop_assert!(w >= j - 1e-12);
            prop_assert!(close(j, jaro(&b, &a)));
            prop_assert!(close(w, jaro_winkler(&b, &a)));
        }

        #[test]
        fn identity_scores_one(a in "[a-f]{1,16}") {
            prop_assert_eq!(jaro(&a, &a), 1.0);
            prop_assert_eq!(jaro_winkler(&a, &a), 1.0);
        }
    }
}
