//! Datasets for the ZSL pipeline: seeded synthetic generation plus an
//! on-disk bundle subsystem for real feature dumps.
//!
//! Two ways to get a [`Dataset`]:
//!
//! - **Synthetic** ([`SyntheticConfig`]): hermetic, seed-determined data in
//!   the regime where a linear feature→attribute projection is recoverable —
//!   the anchor for the trainer tests.
//! - **From disk** ([`StreamingBundle`]): a bundle directory holding a
//!   compact `.zsb` binary feature table, a `signatures.csv` class table,
//!   and a `splits.txt` manifest assigning samples to trainval / test-seen /
//!   test-unseen (mirroring the `att_splits` structure of the reference
//!   ESZSL code). Raw class labels are arbitrary `u32`s, remapped to dense
//!   ids by a [`ClassMap`]. Every loader failure is a typed [`DataError`].
//!   `.zsb` is the only feature format a bundle is read from: a CSV feature
//!   table is converted once by [`import_features_csv`] (`zsl-import
//!   --features-csv`), as `.mat` benchmarks are by `zsl-import`.
//!
//! [`StreamingBundle`] is the one bundle reader. It keeps features on disk
//! and streams them chunk-at-a-time (the [`stream`] module) into the
//! out-of-core trainer/evaluator paths with peak feature memory
//! `O(chunk_rows x feature_dim)`, bit-identical to the in-memory pipeline;
//! [`StreamingBundle::to_dataset`] concatenates the same streams into a
//! [`Dataset`]. [`DatasetBundle`] holds a bundle a caller assembled in
//! memory. A `.zsb` table is read two ways, both over one crate-private
//! reader that validates the file once at open and reads each run of rows
//! with one positioned read: streamed through a [`StreamingBundle`]'s
//! [`crate::FeatureSource`] impl, or whole by [`format::read_zsb`].
//!
//! [`export_dataset`] writes any [`Dataset`] as a bundle; the round trip
//! (write → [`StreamingBundle::open`] → [`StreamingBundle::to_dataset`]) is
//! bit-identical, which the property tests in `tests/property.rs` sweep
//! across shapes and seeds.

mod error;
pub mod format;
mod import;
mod loader;
mod rng;
pub mod stream;
mod synthetic;

pub use error::DataError;
pub use format::{FeatureTable, SplitManifest, ZsbWriter, ZSB_HEADER_LEN, ZSB_MAGIC, ZSB_VERSION};
pub use import::import_features_csv;
pub use loader::{
    export_dataset, ClassMap, DatasetBundle, FEATURES_CSV, FEATURES_ZSB, SIGNATURES_CSV, SPLITS_TXT,
};
pub use rng::Rng;
pub use stream::StreamingBundle;
pub use synthetic::{Dataset, SyntheticConfig};
