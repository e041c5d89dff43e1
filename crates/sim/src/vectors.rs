use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A packed set of primary-input vectors for bit-parallel simulation.
///
/// Vector `v` is stored across bit `v % 64` of word `v / 64` of every
/// input's word row; simulating one word row evaluates 64 vectors at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorSet {
    n_inputs: usize,
    n_words: usize,
    words: Vec<u64>,
}

impl VectorSet {
    /// Generates `n_vectors` uniformly random vectors (rounded up to a
    /// multiple of 64) from a fixed seed, so runs are reproducible.
    ///
    /// # Example
    ///
    /// ```
    /// let v = sim::VectorSet::random(10, 256, 42);
    /// assert_eq!(v.n_inputs(), 10);
    /// assert_eq!(v.n_words(), 4);
    /// assert_eq!(v, sim::VectorSet::random(10, 256, 42));
    /// ```
    #[must_use]
    pub fn random(n_inputs: usize, n_vectors: usize, seed: u64) -> Self {
        let n_words = n_vectors.div_ceil(64).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let words = (0..n_inputs * n_words).map(|_| rng.gen()).collect();
        VectorSet {
            n_inputs,
            n_words,
            words,
        }
    }

    /// Generates the complete input space of an `n_inputs`-input circuit.
    /// Clause survival under exhaustive simulation is proof of validity
    /// (Definition 1 quantifies over all input vectors).
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs > 24` (the vector count would be excessive).
    #[must_use]
    pub fn exhaustive(n_inputs: usize) -> Self {
        assert!(n_inputs <= 24, "exhaustive vectors limited to 24 inputs");
        let n_vectors = 1usize << n_inputs;
        let n_words = n_vectors.div_ceil(64);
        let mut words = vec![0u64; n_inputs * n_words];
        for i in 0..n_inputs {
            for w in 0..n_words {
                words[i * n_words + w] = if i < 6 {
                    // Repeating pattern within every word.
                    let block = 1u64 << i;
                    let mut word = 0u64;
                    let mut bit = 0;
                    while bit < 64 {
                        if (bit >> i) & 1 == 1 {
                            word |= ((1u64 << block) - 1).wrapping_shl(bit as u32);
                        }
                        bit += block as usize;
                    }
                    word
                } else {
                    // Whole words alternate.
                    if (w >> (i - 6)) & 1 == 1 {
                        !0
                    } else {
                        0
                    }
                };
            }
        }
        VectorSet {
            n_inputs,
            n_words,
            words,
        }
    }

    /// Builds a one-word set whose vector 0 is the given assignment (the
    /// remaining 63 lanes replicate it). Useful for replaying a single
    /// witness vector, e.g. a SAT counterexample, through the simulator.
    #[must_use]
    pub fn from_single(assignment: &[bool]) -> Self {
        Self::from_rows(assignment.len(), &[assignment])
    }

    /// Packs explicit vectors 64 per word: row `v` (one value per input)
    /// becomes vector `v`. The lanes past the last row repeat the last
    /// row, so every simulated lane is one of the given vectors (with no
    /// rows at all, the single word holds the all-zero vector).
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not `n_inputs`.
    ///
    /// # Example
    ///
    /// ```
    /// let v = sim::VectorSet::from_rows(2, &[[true, false], [false, true]]);
    /// assert_eq!(v.n_words(), 1);
    /// assert!(v.bit(0, 0) && !v.bit(1, 0));
    /// assert!(!v.bit(0, 1) && v.bit(1, 1));
    /// assert!(!v.bit(0, 63) && v.bit(1, 63));
    /// ```
    #[must_use]
    pub fn from_rows<R: AsRef<[bool]>>(n_inputs: usize, rows: &[R]) -> Self {
        let n_words = rows.len().div_ceil(64).max(1);
        let mut words = vec![0u64; n_inputs * n_words];
        if let Some(last) = rows.last() {
            for v in 0..n_words * 64 {
                let row = rows.get(v).unwrap_or(last).as_ref();
                assert_eq!(row.len(), n_inputs, "vector {v} has the wrong width");
                for (i, &bit) in row.iter().enumerate() {
                    words[i * n_words + v / 64] |= u64::from(bit) << (v % 64);
                }
            }
        }
        VectorSet {
            n_inputs,
            n_words,
            words,
        }
    }

    /// Number of primary inputs the set was built for.
    #[must_use]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of 64-vector words per input.
    #[must_use]
    pub fn n_words(&self) -> usize {
        self.n_words
    }

    /// Number of vectors (always a multiple of 64).
    #[must_use]
    pub fn n_vectors(&self) -> usize {
        self.n_words * 64
    }

    /// The word row of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_inputs`.
    #[must_use]
    pub fn input_words(&self, i: usize) -> &[u64] {
        &self.words[i * self.n_words..(i + 1) * self.n_words]
    }

    /// The value of input `i` in vector `v`.
    #[must_use]
    pub fn bit(&self, i: usize, v: usize) -> bool {
        self.input_words(i)[v / 64] >> (v % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_enumerates_all_assignments() {
        let v = VectorSet::exhaustive(8);
        assert_eq!(v.n_vectors(), 256);
        let mut seen = vec![false; 256];
        for vec_idx in 0..256 {
            let mut val = 0usize;
            for i in 0..8 {
                if v.bit(i, vec_idx) {
                    val |= 1 << i;
                }
            }
            seen[val] = true;
        }
        assert!(seen.iter().all(|&b| b), "some assignment missing");
    }

    #[test]
    fn exhaustive_small_fits_one_word() {
        let v = VectorSet::exhaustive(3);
        assert_eq!(v.n_words(), 1);
        // Low 8 bits enumerate 000..111; input 0 toggles fastest.
        assert_eq!(v.input_words(0)[0] & 0xff, 0b10101010);
        assert_eq!(v.input_words(1)[0] & 0xff, 0b11001100);
        assert_eq!(v.input_words(2)[0] & 0xff, 0b11110000);
    }

    #[test]
    fn random_is_reproducible_and_seed_sensitive() {
        let a = VectorSet::random(5, 128, 7);
        let b = VectorSet::random(5, 128, 7);
        let c = VectorSet::random(5, 128, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_rounds_up_to_word() {
        let v = VectorSet::random(3, 1, 0);
        assert_eq!(v.n_words(), 1);
        assert_eq!(v.n_vectors(), 64);
    }

    #[test]
    fn from_single_replays_a_witness() {
        let v = VectorSet::from_single(&[true, false, true]);
        assert_eq!(v.n_inputs(), 3);
        assert_eq!(v.n_words(), 1);
        for lane in [0usize, 17, 63] {
            assert!(v.bit(0, lane));
            assert!(!v.bit(1, lane));
            assert!(v.bit(2, lane));
        }
    }

    #[test]
    fn from_rows_packs_64_per_word_and_pads_with_the_last_row() {
        let rows: Vec<Vec<bool>> = (0..70).map(|v| vec![v % 2 == 1, v % 3 == 0]).collect();
        let set = VectorSet::from_rows(2, &rows);
        assert_eq!(set.n_words(), 2);
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(set.bit(0, v), row[0], "vector {v}");
            assert_eq!(set.bit(1, v), row[1], "vector {v}");
        }
        for lane in 70..128 {
            assert_eq!(set.bit(0, lane), rows[69][0]);
            assert_eq!(set.bit(1, lane), rows[69][1]);
        }
        assert_eq!(
            VectorSet::from_rows::<Vec<bool>>(3, &[]),
            VectorSet::from_single(&[false; 3])
        );
    }

    #[test]
    fn zero_input_circuit_supported() {
        let v = VectorSet::random(0, 64, 0);
        assert_eq!(v.n_inputs(), 0);
        assert_eq!(v.n_words(), 1);
    }
}
