//! Sorting on the congested clique (Problem 4.1, §4 of the paper).
//!
//! * [`SubsetSort`] — Algorithm 3: up to `≈ cap·|W|` keys sorted within a
//!   `|W| ≈ √n` group in **10 rounds** (Lemma 4.4), 8 when the final
//!   redistribution is skipped.
//! * `sort_keys` — Algorithm 4 / Theorem 4.5: every node holds up to `n`
//!   keys; after **33 rounds** node `i` holds the `i`-th batch of the
//!   global sorted order (Theorem 5.4's router in Step 6; the paper states
//!   37 with Theorem 3.7).
//! * Corollary 4.6 (duplicate-aware global indices), selection and mode
//!   queries, and the §6.3 small-key protocol build on top.

mod full_sort;
mod indexed;
mod keys;
mod small_keys;
mod subset_sort;

pub(crate) use full_sort::sort_on;
pub use full_sort::{
    sort_keys, sort_with_spec, spec_for_sorting, FsMsg, FullSortMachine, SortOutcome,
};
pub use indexed::{
    global_indices, global_indices_with_spec, mode_query, mode_query_with_spec, select_rank,
    select_rank_with_spec, IndexOutcome, ModeOutcome, SelectOutcome,
};
pub(crate) use indexed::{global_indices_on, mode_query_on, select_rank_on};
pub use keys::{IndexedBatch, KeyBatch, TaggedKey, KEYS_PER_BATCH};
pub(crate) use small_keys::small_key_census_on;
pub use small_keys::{
    small_key_census, small_key_census_with_spec, spec_for_census, SmallKeyOutcome,
};
pub use subset_sort::{A3Msg, SubsetSort, SubsetSortOutput};
