//! Cache-resident layer chaining: executes a stride-1 conv→conv pair tile-wise,
//! so the intermediate feature map never round-trips through memory.
//!
//! At high resolution the feature maps between the convolutions of a
//! basic/bottleneck block are tens of MiB — far beyond LLC — so even with fused
//! epilogues every block pays two full DRAM round-trips per intermediate
//! tensor. This module chains a Winograd **producer** (3×3 stride-1, F(2×2) or
//! F(4×4)) into a **consumer** (the block's following 1×1 pointwise conv, or
//! its second 3×3 Winograd conv): the producer writes each chunk of output
//! rows into a small ring **band** buffer, and the consumer's input stage reads
//! the band while those rows are still cache-resident. Only the band (a few
//! hundred KiB) and the final output touch memory.
//!
//! # Ring bands and halos
//!
//! The band holds `band_rows` rows per channel; logical row `r` lives at slot
//! `r % band_rows` ([`WinogradPass`](crate::winograd) addresses rows
//! modularly). A pointwise consumer needs no halo — it consumes each producer
//! band exactly — so `band_rows` is one producer chunk of rows. A Winograd
//! consumer's input transform reads `α − 1` rows beyond each output tile row
//! (its halo), and consumer chunks trail the producer, so the band keeps one
//! producer chunk plus one consumer chunk plus the halo alive
//! (`Rp + Rc + α_c` rows, capped at the full intermediate height).
//!
//! # Determinism and parity
//!
//! Chained execution is **bitwise identical** to the unchained pair: the
//! producer runs its exact shape-pure chunk decomposition (only destination
//! addresses change), the consumer GEMMs compute each output element with a
//! column-independent accumulation order, and a Winograd consumer reads the
//! same staged values through the ring. The chain itself runs the chunks
//! serially — its win is cache locality, not parallelism — so
//! [`ChainMode::Auto`] engages it only when the engine is single-threaded;
//! parity across `RESCNN_THREADS` settings is preserved either way because
//! chained and unchained results are bitwise equal.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::conv::{ConvAlgo, ConvEpilogue, PreparedLayer};
use crate::engine::{self, FusedActivation, NR};
use crate::error::{Result, TensorError};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::winograd::{
    chunk_tile_rows, chunk_tile_rows_f4, chunk_workspace_len, OutPtr, WinogradPass, ALPHA,
    ALPHA_F4, TILE, TILE_F4,
};
use crate::{parallel, scratch};

/// When the chain executor may engage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainMode {
    /// Engage when the engine runs single-threaded (the regime where the
    /// serial tile-wise schedule is a pure win). The decision is re-evaluated
    /// against the effective thread count at plan time, so
    /// [`Network::arena_plan`](../../rescnn_models/nn/struct.Network.html) and
    /// the forward pass always agree.
    #[default]
    Auto,
    /// Never chain.
    Off,
    /// Always chain eligible pairs, regardless of threading.
    Force,
}

/// Encoded [`ChainMode`] (`0` Auto, `1` Off, `2` Force).
static CHAIN_MODE: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide [`ChainMode`].
pub fn set_chain_mode(mode: ChainMode) {
    let encoded = match mode {
        ChainMode::Auto => 0,
        ChainMode::Off => 1,
        ChainMode::Force => 2,
    };
    CHAIN_MODE.store(encoded, Ordering::Relaxed);
}

/// The process-wide [`ChainMode`].
pub fn chain_mode() -> ChainMode {
    match CHAIN_MODE.load(Ordering::Relaxed) {
        1 => ChainMode::Off,
        2 => ChainMode::Force,
        _ => ChainMode::Auto,
    }
}

/// Whether chaining engages right now: a pure function of the [`ChainMode`]
/// and the effective engine thread count, consulted identically by the arena
/// planner and the forward pass so plans always match execution.
pub fn chain_enabled() -> bool {
    match chain_mode() {
        ChainMode::Off => false,
        ChainMode::Force => true,
        ChainMode::Auto => parallel::num_threads() == 1,
    }
}

/// The consumer side of a chained pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainConsumer {
    /// 1×1 stride-1 pad-0 dense conv consumed band-by-band as packed GEMMs.
    Pointwise,
    /// 3×3 stride-1 pad-1 Winograd conv (F(2×2) or F(4×4)) whose input
    /// transform reads the ring band.
    Winograd(ConvAlgo),
}

/// An executable chain: which algorithms run on each side and how large the
/// intermediate ring band must be. Built by [`chain_plan`]; the planner uses
/// `band_elems` to reserve the band in the activation arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainPlan {
    /// Producer algorithm ([`ConvAlgo::Winograd`] or [`ConvAlgo::WinogradF4`]).
    pub producer_algo: ConvAlgo,
    /// Consumer execution kind.
    pub consumer: ChainConsumer,
    /// Ring rows per channel of the intermediate band.
    pub band_rows: usize,
    /// Intermediate (producer output) shape at batch 1.
    pub mid: Shape,
    /// Total band buffer elements (`mid.c × band_rows × mid.w`).
    pub band_elems: usize,
}

/// Producer chunk extent in output rows for the given algorithm and
/// intermediate shape — the producer's exact shape-pure chunk decomposition,
/// restated so the planner can size the band.
fn producer_chunk_rows(algo: ConvAlgo, in_ch: usize, mid: Shape) -> usize {
    match algo {
        ConvAlgo::WinogradF4 => {
            let tiles_h = mid.h.div_ceil(TILE_F4);
            let tiles_w = mid.w.div_ceil(TILE_F4);
            chunk_tile_rows_f4(in_ch, tiles_w, tiles_h) * TILE_F4
        }
        _ => {
            let tiles_h = mid.h.div_ceil(TILE);
            let tiles_w = mid.w.div_ceil(TILE);
            chunk_tile_rows(in_ch, tiles_w, tiles_h) * TILE
        }
    }
}

/// Plans a chained execution of `producer` → `consumer` for the given input
/// shape, or `None` when chaining is disabled ([`chain_enabled`]) or the pair
/// is not eligible. Eligible pairs are a Winograd-dispatched producer followed
/// by either a dense 1×1 stride-1 pad-0 conv dispatched to its GEMM fast path
/// or a Winograd-dispatched 3×3 stride-1 pad-1 conv.
pub fn chain_plan(
    producer: &PreparedLayer,
    consumer: &PreparedLayer,
    input: Shape,
) -> Option<ChainPlan> {
    if !chain_enabled() {
        return None;
    }
    let p_params = producer.params();
    let producer_algo = crate::conv::planned_conv_algo(p_params, input);
    if !matches!(producer_algo, ConvAlgo::Winograd | ConvAlgo::WinogradF4) {
        return None;
    }
    let mid = p_params.output_shape(input).ok()?;
    let mid1 = Shape::chw(mid.c, mid.h, mid.w);
    let c_params = consumer.params();
    if c_params.in_channels != mid.c {
        return None;
    }
    let consumer_algo = crate::conv::planned_conv_algo(c_params, mid1);
    let kind = if c_params.kernel == 1
        && c_params.stride == 1
        && c_params.padding == 0
        && c_params.groups == 1
        && consumer_algo == ConvAlgo::Gemm1x1
        && consumer.dense_gemm_lhs().is_some()
    {
        ChainConsumer::Pointwise
    } else if c_params.kernel == 3
        && c_params.stride == 1
        && c_params.padding == 1
        && c_params.groups == 1
        && matches!(consumer_algo, ConvAlgo::Winograd | ConvAlgo::WinogradF4)
    {
        ChainConsumer::Winograd(consumer_algo)
    } else {
        return None;
    };
    let rp = producer_chunk_rows(producer_algo, p_params.in_channels, mid1);
    let band_rows = match kind {
        // Each producer band is consumed whole before the next one lands, so
        // the ring is exactly one producer chunk (bands then always start at
        // slot 0, keeping the packed-GEMM reads contiguous).
        ChainConsumer::Pointwise => rp.min(mid.h),
        // Consumer chunks trail the producer by up to one chunk plus the
        // input-transform halo; `α_c` rows of margin cover the worst case for
        // either transform size.
        ChainConsumer::Winograd(algo) => {
            let rc = producer_chunk_rows(algo, mid.c, mid1);
            (rp + rc + ALPHA_F4).min(mid.h)
        }
    };
    Some(ChainPlan {
        producer_algo,
        consumer: kind,
        band_rows,
        mid: mid1,
        band_elems: mid.c * band_rows * mid.w,
    })
}

/// Executes a planned conv→conv chain: `out = act_c(consumer(act_p(producer(
/// input) + bias_p)) + bias_c + residual)`, with the intermediate activation
/// living only in the ring band. Bitwise identical to running the two fused
/// convolutions back to back (see the [module docs](self)).
///
/// `band` is the caller-provided ring buffer (arena-recycled; stale contents
/// are fine) holding at least [`ChainPlan::band_elems`] elements.
///
/// # Errors
/// Returns an error if the input/band/output/residual shapes are inconsistent
/// with the plan or either layer rejects its parameters.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_chain_fused_into(
    input: &Tensor,
    producer: &PreparedLayer,
    consumer: &PreparedLayer,
    producer_activation: FusedActivation,
    epilogue: ConvEpilogue<'_>,
    band: &mut Tensor,
    out: &mut Tensor,
    plan: &ChainPlan,
) -> Result<()> {
    let ishape = input.shape();
    let p_params = producer.params();
    let c_params = consumer.params();
    let mid = p_params.output_shape(ishape)?;
    if (mid.c, mid.h, mid.w) != (plan.mid.c, plan.mid.h, plan.mid.w) {
        return Err(TensorError::ShapeMismatch {
            left: mid.as_array().to_vec(),
            right: plan.mid.as_array().to_vec(),
            op: "chain intermediate shape",
        });
    }
    let mid1 = plan.mid;
    let oshape = c_params.output_shape(mid)?;
    if out.shape() != oshape {
        return Err(TensorError::ShapeMismatch {
            left: out.shape().as_array().to_vec(),
            right: oshape.as_array().to_vec(),
            op: "chain output buffer",
        });
    }
    if let Some(skip) = epilogue.residual {
        if skip.shape() != oshape {
            return Err(TensorError::ShapeMismatch {
                left: skip.shape().as_array().to_vec(),
                right: oshape.as_array().to_vec(),
                op: "chain residual",
            });
        }
    }
    if band.shape().volume() < plan.band_elems {
        return Err(TensorError::ShapeMismatch {
            left: vec![band.shape().volume()],
            right: vec![plan.band_elems],
            op: "chain band buffer",
        });
    }

    // Filter banks built up front so chain startup never races lazily into the
    // timed region.
    let p_f4 = plan.producer_algo == ConvAlgo::WinogradF4;
    let p_filter =
        if p_f4 { producer.winograd_filter_f4()? } else { producer.winograd_filter()? };
    let c_winograd = match plan.consumer {
        ChainConsumer::Winograd(algo) => Some((
            algo == ConvAlgo::WinogradF4,
            if algo == ConvAlgo::WinogradF4 {
                consumer.winograd_filter_f4()?
            } else {
                consumer.winograd_filter()?
            },
        )),
        ChainConsumer::Pointwise => None,
    };

    let (mid_ch, mid_h, mid_w) = (mid1.c, mid1.h, mid1.w);
    let band_rows = plan.band_rows;
    let (p_tile, p_rows_per_chunk) = if p_f4 {
        let tiles_h = mid_h.div_ceil(TILE_F4);
        let tiles_w = mid_w.div_ceil(TILE_F4);
        (TILE_F4, chunk_tile_rows_f4(p_params.in_channels, tiles_w, tiles_h))
    } else {
        let tiles_h = mid_h.div_ceil(TILE);
        let tiles_w = mid_w.div_ceil(TILE);
        (TILE, chunk_tile_rows(p_params.in_channels, tiles_w, tiles_h))
    };
    let p_tiles_h = mid_h.div_ceil(p_tile);
    let p_n_chunks = p_tiles_h.div_ceil(p_rows_per_chunk);

    let (oh, ow) = (oshape.h, oshape.w);
    let in_plane = p_params.in_channels * ishape.h * ishape.w;
    let out_plane = c_params.out_channels * oh * ow;
    let residual = epilogue.residual.map(Tensor::as_slice);
    let in_all = input.as_slice();
    let out_base = out.as_mut_slice().as_mut_ptr();
    let band_len = mid_ch * band_rows * mid_w;
    let band_data = band.as_mut_slice();

    // Consumer-side tile geometry: (tile extent, tile rows, tile columns, tile
    // rows per chunk).
    let c_geometry = c_winograd.map(|(c_f4, _)| {
        let tile = if c_f4 { TILE_F4 } else { TILE };
        let (tiles_h, tiles_w) = (oh.div_ceil(tile), ow.div_ceil(tile));
        let rows = if c_f4 {
            chunk_tile_rows_f4(mid_ch, tiles_w, tiles_h)
        } else {
            chunk_tile_rows(mid_ch, tiles_w, tiles_h)
        };
        (tile, tiles_h, tiles_w, rows)
    });
    // The chain runs its chunks serially, so producer and consumer share one
    // chunk workspace sized for the larger of the two.
    let p_tiles_w = mid_w.div_ceil(p_tile);
    let p_ws = chunk_workspace_len(p_f4, p_params.in_channels, mid_ch, p_tiles_w, p_rows_per_chunk);
    let c_ws = c_winograd.zip(c_geometry).map_or(0, |((c_f4, _), (_, _, tiles_w, rows))| {
        chunk_workspace_len(c_f4, mid_ch, c_params.out_channels, tiles_w, rows)
    });
    let mut ws = scratch::take_uninit(p_ws.max(c_ws));

    for n in 0..ishape.n {
        let band_ptr = band_data.as_mut_ptr();
        let p_pass = WinogradPass {
            u: p_filter.u(),
            point_seg: p_filter.point_seg(),
            in_ch: p_params.in_channels,
            out_ch: mid_ch,
            pad: p_params.padding,
            in_data: &in_all[n * in_plane..(n + 1) * in_plane],
            in_rows: ishape.h,
            ih: ishape.h,
            iw: ishape.w,
            // Safety: the band is exclusively owned by this call and the
            // chain runs serially.
            out: OutPtr(band_ptr),
            out_rows: band_rows,
            oh: mid_h,
            ow: mid_w,
            tiles_w: p_tiles_w,
            bias: producer.bias(),
            residual: None,
            activation: producer_activation,
        };

        // Consumer state: either the trailing Winograd pass or the pointwise
        // GEMM closure's stripe bookkeeping.
        let sample_residual = residual.map(|s| &s[n * out_plane..(n + 1) * out_plane]);
        match c_winograd.zip(c_geometry) {
            Some(((c_f4, c_filter), (c_tile, c_tiles_h, c_tiles_w, c_rows_per_chunk))) => {
                let c_alpha = if c_f4 { ALPHA_F4 } else { ALPHA };
                let mut next_tr = 0usize;
                for chunk in 0..p_n_chunks {
                    let tr0 = chunk * p_rows_per_chunk;
                    let tr1 = (tr0 + p_rows_per_chunk).min(p_tiles_h);
                    p_pass.run_chunk_f2_or_f4(p_f4, tr0, tr1, &mut ws);
                    let produced = (tr1 * p_tile).min(mid_h);
                    // Drain every consumer chunk whose band reads (output tile
                    // rows `[next_tr, c_tr1)` touch input rows up to
                    // `(c_tr1−1)·tile + α − 1 − pad`) are fully produced.
                    while next_tr < c_tiles_h {
                        let c_tr1 = (next_tr + c_rows_per_chunk).min(c_tiles_h);
                        let last_needed = (c_tr1 - 1) * c_tile + c_alpha - 1 - c_params.padding;
                        if last_needed >= produced && produced != mid_h {
                            break;
                        }
                        // The consumer pass is rebuilt per drained chunk so its
                        // shared band view is re-derived from the raw pointer
                        // after the producer's latest writes.
                        let c_pass = WinogradPass {
                            u: c_filter.u(),
                            point_seg: c_filter.point_seg(),
                            in_ch: mid_ch,
                            out_ch: c_params.out_channels,
                            pad: c_params.padding,
                            in_data: unsafe { std::slice::from_raw_parts(band_ptr, band_len) },
                            in_rows: band_rows,
                            ih: mid_h,
                            iw: mid_w,
                            // Safety: consumer chunks own disjoint output rows
                            // and run serially behind the producer.
                            out: OutPtr(unsafe { out_base.add(n * out_plane) }),
                            out_rows: oh,
                            oh,
                            ow,
                            tiles_w: c_tiles_w,
                            bias: consumer.bias(),
                            residual: sample_residual,
                            activation: epilogue.activation,
                        };
                        c_pass.run_chunk_f2_or_f4(c_f4, next_tr, c_tr1, &mut ws);
                        next_tr = c_tr1;
                    }
                }
                debug_assert_eq!(next_tr, c_tiles_h, "chain must drain every consumer chunk");
            }
            None => {
                let lhs = consumer.dense_gemm_lhs().expect("planned pointwise consumer");
                let hw = oh * ow;
                let stripe_cols_max = engine::b_stripe_cols(mid_ch);
                // Safety: the pointwise consumer reads the band only after the
                // producer's serial chunk finished writing it.
                let out_region = unsafe {
                    std::slice::from_raw_parts_mut(out_base.add(n * out_plane), out_plane)
                };
                for chunk in 0..p_n_chunks {
                    let tr0 = chunk * p_rows_per_chunk;
                    let tr1 = (tr0 + p_rows_per_chunk).min(p_tiles_h);
                    p_pass.run_chunk_f2_or_f4(p_f4, tr0, tr1, &mut ws);
                    let row0 = tr0 * p_tile;
                    let row1 = (tr1 * p_tile).min(mid_h);
                    // The band holds exactly one producer chunk, so these rows
                    // sit at ring slots `[0, row1 − row0)` — one contiguous
                    // column range of the `mid_ch × (band_rows · mid_w)` view.
                    debug_assert_eq!(row0 % band_rows, 0);
                    let band_view = unsafe { std::slice::from_raw_parts(band_ptr, band_len) };
                    let band_cols = band_rows * mid_w;
                    let total = (row1 - row0) * mid_w;
                    let mut j0 = 0;
                    while j0 < total {
                        let width = stripe_cols_max.min(total - j0);
                        let mut bpack = scratch::take_uninit(width.div_ceil(NR) * mid_ch * NR);
                        engine::pack_b(band_view, mid_ch, band_cols, j0, width, &mut bpack);
                        engine::parallel_packed_gemm(
                            lhs,
                            c_params.out_channels,
                            mid_ch,
                            &bpack,
                            width,
                            out_region,
                            hw,
                            row0 * ow + j0,
                            engine::Epilogue {
                                bias: consumer.bias(),
                                residual: sample_residual,
                                activation: epilogue.activation,
                            },
                            false,
                            false,
                        );
                        scratch::give(bpack);
                        j0 += width;
                    }
                }
            }
        }
    }
    scratch::give(ws);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvEpilogue;
    use crate::shape::Conv2dParams;

    fn layer(ic: usize, oc: usize, k: usize, pad: usize, seed: u64) -> PreparedLayer {
        let weight = Tensor::random_uniform(Shape::new(oc, ic, k, k), 0.5, seed);
        let bias: Vec<f32> = (0..oc).map(|i| 0.01 * i as f32).collect();
        PreparedLayer::new(weight, Some(bias), Conv2dParams::new(ic, oc, k, 1, pad)).unwrap()
    }

    fn run_pair_unchained(
        input: &Tensor,
        producer: &PreparedLayer,
        consumer: &PreparedLayer,
        p_algo: ConvAlgo,
        c_algo: ConvAlgo,
    ) -> Tensor {
        let mid_shape = producer.params().output_shape(input.shape()).unwrap();
        let mut mid = Tensor::zeros(mid_shape);
        producer
            .forward_with_algo_into(
                input,
                p_algo,
                ConvEpilogue::activation(FusedActivation::Relu),
                &mut mid,
            )
            .unwrap();
        let mut out = Tensor::zeros(consumer.params().output_shape(mid_shape).unwrap());
        consumer
            .forward_with_algo_into(
                &mid,
                c_algo,
                ConvEpilogue::activation(FusedActivation::Relu),
                &mut out,
            )
            .unwrap();
        out
    }

    fn run_pair_chained(
        input: &Tensor,
        producer: &PreparedLayer,
        consumer: &PreparedLayer,
    ) -> (Tensor, ChainPlan) {
        let plan = chain_plan(producer, consumer, input.shape()).expect("pair must be eligible");
        let mid = producer.params().output_shape(input.shape()).unwrap();
        let mut band = Tensor::zeros(Shape::chw(mid.c, plan.band_rows, mid.w));
        let oshape = consumer.params().output_shape(mid).unwrap();
        let mut out = Tensor::zeros(oshape);
        conv2d_chain_fused_into(
            input,
            producer,
            consumer,
            FusedActivation::Relu,
            ConvEpilogue::activation(FusedActivation::Relu),
            &mut band,
            &mut out,
            &plan,
        )
        .unwrap();
        (out, plan)
    }

    #[test]
    fn chained_winograd_to_pointwise_is_bitwise_identical() {
        let _guard = crate::test_sync::global_state_lock();
        set_chain_mode(ChainMode::Force);
        let producer = layer(6, 8, 3, 1, 11);
        let consumer = layer(8, 10, 1, 0, 12);
        let input = Tensor::random_uniform(Shape::chw(6, 17, 13), 1.0, 13);
        let ctx = crate::context::EngineContext::new().with_algo(ConvAlgo::Winograd);
        let (chained, plan) = ctx.scope(|| run_pair_chained(&input, &producer, &consumer));
        assert_eq!(plan.consumer, ChainConsumer::Pointwise);
        let reference =
            run_pair_unchained(&input, &producer, &consumer, ConvAlgo::Winograd, ConvAlgo::Gemm1x1);
        assert_eq!(reference.as_slice().len(), chained.as_slice().len());
        for (i, (&a, &b)) in reference.as_slice().iter().zip(chained.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
        }
        set_chain_mode(ChainMode::Auto);
    }

    #[test]
    fn chained_winograd_to_winograd_is_bitwise_identical() {
        let _guard = crate::test_sync::global_state_lock();
        set_chain_mode(ChainMode::Force);
        let producer = layer(5, 7, 3, 1, 21);
        let consumer = layer(7, 6, 3, 1, 22);
        let input = Tensor::random_uniform(Shape::chw(5, 19, 15), 1.0, 23);
        let ctx = crate::context::EngineContext::new().with_algo(ConvAlgo::WinogradF4);
        let (chained, plan) = ctx.scope(|| run_pair_chained(&input, &producer, &consumer));
        assert_eq!(plan.consumer, ChainConsumer::Winograd(ConvAlgo::WinogradF4));
        assert_eq!(plan.producer_algo, ConvAlgo::WinogradF4);
        let reference = run_pair_unchained(
            &input,
            &producer,
            &consumer,
            ConvAlgo::WinogradF4,
            ConvAlgo::WinogradF4,
        );
        for (&a, &b) in reference.as_slice().iter().zip(chained.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        set_chain_mode(ChainMode::Auto);
    }

    #[test]
    fn chain_plan_rejects_ineligible_pairs_and_off_mode() {
        let _guard = crate::test_sync::global_state_lock();
        set_chain_mode(ChainMode::Force);
        let producer = layer(4, 6, 3, 1, 31);
        let pointwise = layer(6, 8, 1, 0, 32);
        let strided = PreparedLayer::new(
            Tensor::random_uniform(Shape::new(8, 6, 3, 3), 0.5, 33),
            None,
            Conv2dParams::new(6, 8, 3, 2, 1),
        )
        .unwrap();
        let shape = Shape::chw(4, 16, 16);
        let ctx = crate::context::EngineContext::new().with_algo(ConvAlgo::Winograd);
        ctx.scope(|| {
            assert!(chain_plan(&producer, &pointwise, shape).is_some());
            // Strided consumer: not chainable.
            assert!(chain_plan(&producer, &strided, shape).is_none());
            // Channel mismatch between the pair.
            let wrong = layer(5, 8, 1, 0, 34);
            assert!(chain_plan(&producer, &wrong, shape).is_none());
        });
        // Producer not Winograd-dispatched: no chain.
        let im2col = crate::context::EngineContext::new().with_algo(ConvAlgo::Im2colPacked);
        im2col.scope(|| assert!(chain_plan(&producer, &pointwise, shape).is_none()));
        set_chain_mode(ChainMode::Off);
        ctx.scope(|| assert!(chain_plan(&producer, &pointwise, shape).is_none()));
        set_chain_mode(ChainMode::Auto);
    }
}
