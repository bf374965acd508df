//! Elementary symmetric polynomials (ESPs) over kernel eigenvalues.
//!
//! The k-DPP normalization constant is `Z_k = e_k(λ_1, …, λ_m)` (paper
//! Eq. 6), computed by the recursive DP the paper spells out as Algorithm 1:
//!
//! ```text
//! e_0^m = 1,  e_l^0 = 0 (l ≥ 1),  e_l^m = e_l^{m-1} + λ_m · e_{l-1}^{m-1}
//! ```
//!
//! which runs in `O(m·k)` time. The gradient of `log Z_k` additionally needs
//! the *leave-one-out* polynomials `e_{k-1}(λ_{-i})` (one for each `i`),
//! which are provided here too.

/// Computes `e_k(λ)` with the paper's Algorithm 1 in `O(m·k)`.
///
/// Eigenvalues of PSD kernels are non-negative, so the recurrence involves no
/// cancellation and is numerically benign. `e_0 = 1` by convention; `k > m`
/// yields 0.
pub fn elementary_symmetric(eigenvalues: &[f64], k: usize) -> f64 {
    let m = eigenvalues.len();
    if k == 0 {
        return 1.0;
    }
    if k > m {
        return 0.0;
    }
    // e[l] holds e_l^{(m')} as m' grows; iterate l downward so each λ_m is
    // used exactly once per step.
    // lint:allow(hotpath-alloc): convenience entry point; the training loop
    // uses `elementary_symmetric_all_into` with a reused buffer.
    let mut e = vec![0.0; k + 1];
    e[0] = 1.0;
    for &lambda in eigenvalues {
        for l in (1..=k).rev() {
            e[l] += lambda * e[l - 1];
        }
    }
    e[k]
}

/// Computes all of `e_0 … e_k` in a single pass.
pub fn elementary_symmetric_all(eigenvalues: &[f64], k: usize) -> Vec<f64> {
    // lint:allow(hotpath-alloc): owned-return convenience wrapper over the
    // `_into` variant; not called from the training loop.
    let mut e = Vec::new();
    elementary_symmetric_all_into(eigenvalues, k, &mut e);
    e
}

/// [`elementary_symmetric_all`] into a reused buffer (`e.len() == k + 1` on
/// return; no allocation once the buffer has capacity `k + 1`).
pub fn elementary_symmetric_all_into(eigenvalues: &[f64], k: usize, e: &mut Vec<f64>) {
    e.clear();
    e.resize(k + 1, 0.0);
    e[0] = 1.0;
    for &lambda in eigenvalues {
        // `e` has exactly k+1 slots, so `l` ranges over 1..=k directly; the
        // downward sweep uses each λ exactly once per degree.
        for l in (1..=k).rev() {
            e[l] += lambda * e[l - 1];
        }
    }
}

/// Reusable scratch for [`leave_one_out_into`]: the prefix/suffix ESP tables.
#[derive(Debug, Clone, Default)]
pub struct LeaveOneOutScratch {
    /// `prefix[i*(k+1) + l] = e_l(λ_0..λ_{i-1})`, `(m+1)·(k+1)` entries.
    prefix: Vec<f64>,
    /// `suffix[i*(k+1) + l] = e_l(λ_i..λ_{m-1})`, `(m+1)·(k+1)` entries.
    suffix: Vec<f64>,
}

/// Leave-one-out ESPs: returns `v` with `v[i] = e_{k}(λ with λ_i removed)`.
///
/// Used by the k-DPP normalizer gradient,
/// `∂ e_k(λ)/∂ λ_i = e_{k-1}(λ_{-i})` — call with `k-1` for that purpose.
pub fn leave_one_out(eigenvalues: &[f64], k: usize) -> Vec<f64> {
    // lint:allow(hotpath-alloc): owned-return convenience wrapper; the
    // gradient path calls `leave_one_out_into` with pooled scratch.
    let mut out = Vec::new();
    let mut scratch = LeaveOneOutScratch::default();
    leave_one_out_into(eigenvalues, k, &mut scratch, &mut out);
    out
}

/// [`leave_one_out`] in `O(m·k)` total via a prefix/suffix ESP merge.
///
/// Builds `prefix[i] = e_·(λ_0..λ_{i-1})` and `suffix[i] = e_·(λ_i..λ_{m-1})`
/// tables (each `O(m·k)`), then merges per index with the convolution
/// `e_k(λ_{-i}) = Σ_l prefix[i][l] · suffix[i+1][k−l]` (`O(k)` per index).
/// All terms are non-negative for PSD spectra, so unlike the division-based
/// downdate there is no cancellation and no instability when some `λ_i`
/// dominate. Allocation-free once `scratch`/`out` reach steady-state size.
pub fn leave_one_out_into(
    eigenvalues: &[f64],
    k: usize,
    scratch: &mut LeaveOneOutScratch,
    out: &mut Vec<f64>,
) {
    let m = eigenvalues.len();
    let w = k + 1;
    scratch.prefix.clear();
    scratch.prefix.resize((m + 1) * w, 0.0);
    scratch.suffix.clear();
    scratch.suffix.resize((m + 1) * w, 0.0);

    // Prefix pass: row i+1 extends row i with λ_i.
    scratch.prefix[0] = 1.0; // e_0 of the empty prefix
    for i in 0..m {
        let lambda = eigenvalues[i];
        let (prev_rows, next_rows) = scratch.prefix.split_at_mut((i + 1) * w);
        let prev = &prev_rows[i * w..];
        let next = &mut next_rows[..w];
        next[0] = prev[0];
        for l in 1..w {
            next[l] = prev[l] + lambda * prev[l - 1];
        }
    }
    // Suffix pass: row i extends row i+1 with λ_i.
    scratch.suffix[m * w] = 1.0; // e_0 of the empty suffix
    for i in (0..m).rev() {
        let lambda = eigenvalues[i];
        let (head, tail) = scratch.suffix.split_at_mut((i + 1) * w);
        let next = &tail[..w];
        let cur = &mut head[i * w..];
        cur[0] = next[0];
        for l in 1..w {
            cur[l] = next[l] + lambda * next[l - 1];
        }
    }

    // Merge: e_k(λ_{-i}) = Σ_l e_l(prefix before i) · e_{k−l}(suffix after i).
    out.clear();
    for i in 0..m {
        let prefix = &scratch.prefix[i * w..(i + 1) * w];
        let suffix = &scratch.suffix[(i + 1) * w..(i + 2) * w];
        let mut acc = 0.0;
        for l in 0..=k {
            acc += prefix[l] * suffix[k - l];
        }
        out.push(acc);
    }
}

/// Brute-force leave-one-out reference (`O(m²·k)`): recomputes each reduced
/// ESP directly. Kept as the oracle the fast prefix/suffix merge is
/// property-tested against.
pub fn leave_one_out_naive(eigenvalues: &[f64], k: usize) -> Vec<f64> {
    let m = eigenvalues.len();
    let mut out = Vec::with_capacity(m);
    let mut reduced = Vec::with_capacity(m.saturating_sub(1));
    for i in 0..m {
        reduced.clear();
        reduced.extend_from_slice(&eigenvalues[..i]);
        reduced.extend_from_slice(&eigenvalues[i + 1..]);
        out.push(elementary_symmetric(&reduced, k));
    }
    out
}

/// `log e_k(λ)` with overflow protection: eigenvalues are rescaled by their
/// maximum so intermediate ESPs stay bounded, then the log of the scale is
/// added back (`e_k(cλ) = c^k e_k(λ)`).
pub fn log_elementary_symmetric(eigenvalues: &[f64], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    if k > eigenvalues.len() {
        return f64::NEG_INFINITY;
    }
    let max = eigenvalues.iter().cloned().fold(0.0_f64, f64::max);
    if max <= 0.0 {
        return f64::NEG_INFINITY;
    }
    // lint:allow(hotpath-alloc): log-normalizer is a diagnostics/eval API;
    // the training loss uses the scaled in-place path in `batch.rs`.
    let scaled: Vec<f64> = eigenvalues.iter().map(|&l| l / max).collect();
    let e = elementary_symmetric(&scaled, k);
    if e <= 0.0 {
        return f64::NEG_INFINITY;
    }
    e.ln() + k as f64 * max.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate_subsets;

    /// Brute-force ESP: sum over all k-subsets of the product of entries.
    fn esp_naive(lambda: &[f64], k: usize) -> f64 {
        enumerate_subsets(lambda.len(), k)
            .iter()
            .map(|s| s.iter().map(|&i| lambda[i]).product::<f64>())
            .sum()
    }

    #[test]
    fn matches_naive_enumeration() {
        let lambda = [0.5, 1.5, 2.0, 0.1, 3.0];
        for k in 0..=5 {
            let fast = elementary_symmetric(&lambda, k);
            let slow = esp_naive(&lambda, k);
            assert!(
                (fast - slow).abs() < 1e-10 * slow.abs().max(1.0),
                "k={k}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn base_cases() {
        assert_eq!(elementary_symmetric(&[], 0), 1.0);
        assert_eq!(elementary_symmetric(&[], 1), 0.0);
        assert_eq!(elementary_symmetric(&[2.0, 3.0], 3), 0.0);
        assert_eq!(elementary_symmetric(&[2.0, 3.0], 1), 5.0);
        assert_eq!(elementary_symmetric(&[2.0, 3.0], 2), 6.0);
    }

    #[test]
    fn all_variant_matches_individual() {
        let lambda = [1.0, 0.2, 4.0, 2.5];
        let all = elementary_symmetric_all(&lambda, 4);
        for (k, &value) in all.iter().enumerate() {
            assert!((value - elementary_symmetric(&lambda, k)).abs() < 1e-12);
        }
    }

    #[test]
    fn leave_one_out_matches_direct_removal() {
        let lambda = [0.7, 1.1, 0.4, 2.0];
        let loo = leave_one_out(&lambda, 2);
        for (i, &li) in loo.iter().enumerate() {
            let mut reduced = lambda.to_vec();
            reduced.remove(i);
            assert!((li - esp_naive(&reduced, 2)).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn fast_leave_one_out_matches_naive() {
        let lambda = [0.7, 1.1, 0.4, 2.0, 1e-9, 30.0, 0.0, 5.5];
        for k in 0..=lambda.len() {
            let fast = leave_one_out(&lambda, k);
            let naive = leave_one_out_naive(&lambda, k);
            for (i, (f, n)) in fast.iter().zip(&naive).enumerate() {
                assert!(
                    (f - n).abs() <= 1e-12 * n.abs().max(1.0),
                    "k={k} i={i}: fast {f} vs naive {n}"
                );
            }
        }
    }

    #[test]
    fn leave_one_out_buffers_are_reusable() {
        let mut scratch = LeaveOneOutScratch::default();
        let mut out = Vec::new();
        // Shrinking and growing m/k across calls must stay correct.
        for (lambda, k) in [
            (vec![1.0, 2.0, 3.0, 4.0, 5.0], 3),
            (vec![0.5, 0.25], 1),
            (vec![2.0, 0.1, 7.0, 0.4], 4),
        ] {
            leave_one_out_into(&lambda, k, &mut scratch, &mut out);
            assert_eq!(out, leave_one_out_naive(&lambda, k));
        }
    }

    #[test]
    fn leave_one_out_is_esp_derivative() {
        // Finite-difference check of ∂e_k/∂λ_i = e_{k-1}(λ_{-i}).
        let lambda = [0.9, 1.7, 0.3, 1.2, 0.6];
        let k = 3;
        let loo = leave_one_out(&lambda, k - 1);
        let h = 1e-6;
        for i in 0..lambda.len() {
            let mut plus = lambda.to_vec();
            plus[i] += h;
            let mut minus = lambda.to_vec();
            minus[i] -= h;
            let fd = (elementary_symmetric(&plus, k) - elementary_symmetric(&minus, k)) / (2.0 * h);
            assert!(
                (fd - loo[i]).abs() < 1e-6,
                "i={i}: fd {fd} vs loo {}",
                loo[i]
            );
        }
    }

    #[test]
    fn log_esp_matches_plain_log() {
        let lambda = [0.5, 1.5, 2.0, 0.1];
        for k in 1..=4 {
            let expected = elementary_symmetric(&lambda, k).ln();
            assert!((log_elementary_symmetric(&lambda, k) - expected).abs() < 1e-10);
        }
    }

    #[test]
    fn log_esp_survives_huge_eigenvalues() {
        // Plain ESP of these would overflow f64 (~1e300 each, k=4 → 1e1200).
        let lambda = [1e300_f64, 1e300, 1e300, 1e300];
        let log_e = log_elementary_symmetric(&lambda, 4);
        let expected = 4.0 * 1e300_f64.ln(); // single subset, product of all four
        assert!((log_e - expected).abs() < 1e-6);
    }

    #[test]
    fn log_esp_degenerate_cases() {
        assert_eq!(log_elementary_symmetric(&[0.0, 0.0], 1), f64::NEG_INFINITY);
        assert_eq!(log_elementary_symmetric(&[1.0], 2), f64::NEG_INFINITY);
        assert_eq!(log_elementary_symmetric(&[3.0, 4.0], 0), 0.0);
    }
}
