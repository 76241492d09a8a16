//! The scan index: what a reader needs to know about one stored stream, measured once
//! while the original image was in hand (§V's ingest-time decision).
//!
//! For each ladder rung a [`ScanIndex`] holds the storage policy's [`ScanPoint`] — how
//! many scans the rung needs, the fraction of the file they are, the SSIM they reach — and,
//! where the preview read goes deeper into the file than the rung itself needs, the SSIM
//! of that deeper prefix at the rung (the backbone sees whatever was read). Those are
//! exactly the values the walking planner computes per request; with them in the index a
//! read is two lookups and a decode, and needs neither the original image nor an SSIM.
//!
//! Entries have one producer, the walking planner's own `PrefixWalk` calls
//! (`PrefixWalk::measure_rung`), so an indexed plan is bit-identical to a
//! walked one by construction. They live in a bounded [`ScanIndexStore`] owned by the
//! pipeline and keyed by the stream's content address
//! ([`ProgressiveImage::digest`](rescnn_projpeg::ProgressiveImage::digest)), so an entry
//! can never describe bytes other than the ones it was measured on.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rescnn_imaging::SceneSpec;

use crate::calibration::ScanPoint;

/// One rung's entry of a [`ScanIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IndexedRung {
    /// The storage policy's point for this rung: the cheapest sufficient prefix.
    pub(crate) point: ScanPoint,
    /// SSIM at this rung of the prefix the preview stage reads — recorded exactly where
    /// that prefix is deeper than [`point`](Self::point), which is where a read delivers
    /// it instead.
    pub(crate) preview_depth_ssim: Option<f64>,
}

impl IndexedRung {
    /// What an inference that chose this rung after reading `preview_scans` scans for its
    /// preview reads and delivers: `(scans read, SSIM of what the backbone sees)` — the
    /// deeper of the two prefixes. `None` when the preview read is deeper than this entry
    /// was measured against, so the SSIM of that prefix is not on record.
    pub(crate) fn delivered(&self, preview_scans: usize) -> Option<(usize, f64)> {
        if preview_scans > self.point.scans {
            Some((preview_scans, self.preview_depth_ssim?))
        } else {
            Some((self.point.scans, self.point.ssim))
        }
    }
}

/// The per-rung read decisions of one stored stream under one pipeline's storage policy,
/// as returned by
/// [`DynamicResolutionPipeline::ingest`](crate::DynamicResolutionPipeline::ingest).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScanIndex {
    rungs: BTreeMap<usize, IndexedRung>,
}

impl ScanIndex {
    /// Every measured rung with its point, ascending by resolution.
    pub fn points(&self) -> impl Iterator<Item = (usize, ScanPoint)> + '_ {
        self.rungs.iter().map(|(&resolution, rung)| (resolution, rung.point))
    }

    pub(crate) fn rung(&self, resolution: usize) -> Option<IndexedRung> {
        self.rungs.get(&resolution).copied()
    }
}

impl FromIterator<(usize, IndexedRung)> for ScanIndex {
    fn from_iter<I: IntoIterator<Item = (usize, IndexedRung)>>(rungs: I) -> Self {
        ScanIndex { rungs: rungs.into_iter().collect() }
    }
}

/// A bounded, content-addressed store of [`ScanIndex`]es.
///
/// Keyed by the stream's digest and checked against the scene the stream was measured
/// against (sample ids repeat across datasets; the scene recipe is what the reference
/// image is rendered from). Both are inputs of every stored value and the third — the
/// owning pipeline's configuration — never changes, so an entry cannot go stale: the
/// store changes how long a plan takes, never what it returns. At capacity the
/// oldest-inserted stream is evicted and simply measured again at its next sight.
#[derive(Debug)]
pub(crate) struct ScanIndexStore {
    capacity: usize,
    slots: BTreeMap<u128, Slot>,
    /// Digests in insertion order, oldest first.
    order: VecDeque<u128>,
}

#[derive(Debug)]
struct Slot {
    scene: SceneSpec,
    index: Arc<ScanIndex>,
}

impl ScanIndexStore {
    /// An empty store holding at most `capacity` streams (at least one).
    pub(crate) fn new(capacity: usize) -> Self {
        ScanIndexStore { capacity: capacity.max(1), slots: BTreeMap::new(), order: VecDeque::new() }
    }

    /// The index of the stream with this digest, measured against this scene.
    pub(crate) fn get(&self, digest: u128, scene: &SceneSpec) -> Option<Arc<ScanIndex>> {
        self.slots
            .get(&digest)
            .filter(|slot| slot.scene == *scene)
            .map(|slot| Arc::clone(&slot.index))
    }

    /// Adds measured rungs to the stream's index, creating it — and evicting the
    /// oldest-inserted stream when full — if the store has none. Measurements are
    /// deterministic, so a rung recorded twice (two workers meeting the same stream at
    /// once) is recorded with the same value; the same bytes offered under another scene
    /// take over the slot.
    pub(crate) fn record(
        &mut self,
        digest: u128,
        scene: &SceneSpec,
        rungs: impl IntoIterator<Item = (usize, IndexedRung)>,
    ) {
        match self.slots.get_mut(&digest) {
            Some(slot) if slot.scene == *scene => {
                Arc::make_mut(&mut slot.index).rungs.extend(rungs)
            }
            Some(slot) => {
                *slot = Slot { scene: scene.clone(), index: Arc::new(rungs.into_iter().collect()) }
            }
            None => {
                while self.slots.len() >= self.capacity {
                    let Some(oldest) = self.order.pop_front() else { break };
                    self.slots.remove(&oldest);
                }
                let index = Arc::new(rungs.into_iter().collect());
                self.slots.insert(digest, Slot { scene: scene.clone(), index });
                self.order.push_back(digest);
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(scans: usize, deep: Option<f64>) -> IndexedRung {
        let point = ScanPoint { scans, read_fraction: scans as f64 / 5.0, ssim: 0.9 };
        IndexedRung { point, preview_depth_ssim: deep }
    }

    #[test]
    fn a_rung_delivers_the_deeper_of_its_point_and_the_preview_read() {
        let shallow = rung(2, Some(0.97));
        assert_eq!(shallow.delivered(1), Some((2, 0.9)));
        assert_eq!(shallow.delivered(2), Some((2, 0.9)));
        assert_eq!(shallow.delivered(4), Some((4, 0.97)));
        // Measured against a preview read no deeper than its own point: a deeper one is
        // not on record.
        assert_eq!(rung(2, None).delivered(3), None);
    }

    #[test]
    fn store_is_bounded_oldest_first_and_checks_the_scene() {
        let scene = |seed| SceneSpec::new(64, 48, 3).with_seed(seed);
        let mut store = ScanIndexStore::new(2);
        store.record(1, &scene(1), [(112, rung(1, None))]);
        store.record(2, &scene(2), [(112, rung(2, None))]);
        // A second record of a stored stream merges and does not make it any younger.
        store.record(1, &scene(1), [(224, rung(3, None)), (112, rung(1, None))]);
        let first = store.get(1, &scene(1)).unwrap();
        assert_eq!(
            first.points().map(|(res, p)| (res, p.scans)).collect::<Vec<_>>(),
            [(112, 1), (224, 3)]
        );
        assert_eq!(first.rung(336), None);

        store.record(3, &scene(3), [(112, rung(3, None))]);
        assert_eq!(store.len(), 2);
        assert!(store.get(1, &scene(1)).is_none(), "the oldest-inserted stream goes first");
        assert!(store.get(2, &scene(2)).is_some() && store.get(3, &scene(3)).is_some());

        // Equal bytes under another scene never see each other's entries: a lookup
        // misses, and a record takes the slot over rather than merging into it.
        assert!(store.get(2, &scene(9)).is_none());
        store.record(2, &scene(9), [(224, rung(4, None))]);
        assert!(store.get(2, &scene(2)).is_none());
        assert_eq!(store.get(2, &scene(9)).unwrap().rung(112), None);
        assert_eq!(store.len(), 2);
    }
}
