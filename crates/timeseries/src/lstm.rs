//! A from-scratch stacked-LSTM forecaster.
//!
//! Mirrors the architecture the paper describes (Sec. VI-A3): two stacked
//! LSTM layers followed by a dense layer with ReLU activation, trained to
//! predict the next value of the (min-max normalized) centroid series from
//! a sliding input window. Training uses full backpropagation through time
//! and the Adam optimizer with gradient clipping; no external ML framework
//! is involved.
//!
//! The model is intentionally small — the paper's point is that only `K`
//! such models are needed for the whole datacenter, so each one trains in
//! seconds on a laptop core (Table II).
//!
//! At hidden widths up to 16, training and forecasting run fixed-width
//! `[f64; H]` kernels, monomorphised per width behind one dispatch
//! (`by_width!`). A training step (`TrainKernel`) runs the forward over
//! per-gate-block transposed weights, reloaded from the row-major
//! parameters after each Adam step, and BPTT with only its serial chain
//! (`dz`, then `Whᵀ·dz`) inside the reverse time loop: the weight-gradient
//! sums and the input gradient for the layer below run after it. A forecast
//! needs no BPTT state, so it runs an inference-only forward (`InferKernel`)
//! that keeps only each layer's running `(h, c)`. Wider states train and forecast
//! through dynamic-width flat-buffer kernels from `utilcast_linalg::kernels`
//! (blocked GEMV, rank-1 update, fused gate activation) over one recycled
//! `Workspace`. The gate nonlinearities are the kernels' own branch-free
//! `sigmoid`/`tanh`, not libm's: within `1e-15` of libm per call, and the
//! same bits on every platform.
//!
//! Every kernel gives every accumulator the IEEE op sequence of the
//! allocating nested-`Vec` scalar loops they replaced, kept as the
//! `#[cfg(test)]` oracle in `lstm/oracle.rs`; run with the same activations,
//! the paths are bit-identical by construction, and the differential suite
//! beside the oracle enforces it on both sides of the width dispatch.
//! `lstm/libm_gate.rs` holds the owned activations to libm's at model level.
//!
//! [`Forecaster::refit`] continues from the outgoing weights: `epochs`
//! passes over the windows new since the last (re)fit plus the
//! [`REPLAY_WINDOWS`] before them, with fresh Adam moments, where a cold
//! [`Forecaster::fit`] draws fresh weights and passes over every window of
//! the history. `tests/lstm_warm.rs` gates a chain of refits against cold
//! fits at the same lengths.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{DeError, Deserialize, Serialize};
use utilcast_linalg::container::{Reader, Writer};
use utilcast_linalg::kernels::{gemv_acc, gemv_t_acc, lstm_gate_fuse, rank1_acc, sigmoid, tanh};
use utilcast_linalg::rng::normal;

use crate::error::require_finite;
use crate::{Forecaster, TimeSeriesError};

/// Windows older than the last (re)fit that a refit replays beside the new
/// ones, so a refit on a barely grown history still takes a few dozen
/// gradient steps and the weights do not chase only the newest points.
pub const REPLAY_WINDOWS: usize = 16;

/// The width dispatch of the fixed-width kernels: evaluates `$fixed` with
/// the const `$H` bound to `$width` for widths 1–16, and `$wide` for any
/// other width. `fit` and `forecast` both dispatch through it.
macro_rules! by_width {
    ($width:expr, $H:ident => $fixed:expr, _ => $wide:expr $(,)?) => {
        by_width!(@arms $width, $H, $fixed, $wide, [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16])
    };
    (@arms $width:expr, $H:ident, $fixed:expr, $wide:expr, [$($w:literal)*]) => {
        match $width {
            $($w => {
                const $H: usize = $w;
                $fixed
            })*
            _ => $wide,
        }
    };
}

/// Hyperparameters for [`Lstm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmConfig {
    /// Input window length (number of past steps fed to the network).
    pub window: usize,
    /// Hidden units per LSTM layer.
    pub hidden: usize,
    /// Number of stacked LSTM layers (the paper uses 2).
    pub layers: usize,
    /// Training epochs over the window set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Per-parameter gradient clip (absolute value).
    pub grad_clip: f64,
    /// RNG seed for weight initialization and sample shuffling.
    pub seed: u64,
}

impl LstmConfig {
    /// Writes the hyperparameters into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        for v in [self.window, self.hidden, self.layers, self.epochs] {
            out.usize(v);
        }
        out.f64(self.learning_rate);
        out.f64(self.grad_clip);
        out.u64(self.seed);
    }

    /// Reads hyperparameters written by [`LstmConfig::encode_into`].
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(LstmConfig {
            window: input.usize()?,
            hidden: input.usize()?,
            layers: input.usize()?,
            epochs: input.usize()?,
            learning_rate: input.f64()?,
            grad_clip: input.f64()?,
            seed: input.u64()?,
        })
    }
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            window: 12,
            hidden: 16,
            layers: 2,
            epochs: 40,
            learning_rate: 0.01,
            grad_clip: 1.0,
            seed: 0,
        }
    }
}

/// One LSTM layer's parameters: gate order is (input, forget, candidate,
/// output), packed as four consecutive blocks of `hidden` rows. All
/// parameters live in one flat buffer laid out `[wx | wh | b]` — the same
/// layout the gradient vector uses, so the optimizer update is a single
/// aligned pass.
#[derive(Debug, Clone, PartialEq)]
struct LstmLayer {
    input: usize,
    hidden: usize,
    /// `[wx | wh | b]`: input weights (`4*hidden x input`, row-major),
    /// recurrent weights (`4*hidden x hidden`, row-major), gate biases
    /// (`4*hidden`).
    params: Vec<f64>,
}

impl LstmLayer {
    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction, with buffer
    // lengths debug_asserted at kernel entry; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::LstmLayer::new
    fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        // Xavier-style initialization scaled by fan-in. Draw order (wx,
        // then wh, then biases) is part of the determinism contract.
        let scale_x = (1.0 / input as f64).sqrt();
        let scale_h = (1.0 / hidden as f64).sqrt();
        let mut params = Vec::with_capacity(4 * hidden * (input + hidden + 1));
        params.extend((0..4 * hidden * input).map(|_| normal(rng, 0.0, scale_x)));
        params.extend((0..4 * hidden * hidden).map(|_| normal(rng, 0.0, scale_h)));
        // Forget-gate bias starts at 1.0 (standard trick to ease gradient
        // flow early in training); other gates at 0.
        let b_start = params.len();
        params.resize(b_start + 4 * hidden, 0.0);
        for v in params[b_start + hidden..b_start + 2 * hidden].iter_mut() {
            *v = 1.0;
        }
        LstmLayer {
            input,
            hidden,
            params,
        }
    }

    fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Offset of the recurrent-weight block in `params`.
    fn wh_offset(&self) -> usize {
        4 * self.hidden * self.input
    }

    /// Offset of the bias block in `params`.
    fn b_offset(&self) -> usize {
        self.wh_offset() + 4 * self.hidden * self.hidden
    }

    /// Input weights, `4*hidden x input`, row-major.
    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction, with buffer
    // lengths debug_asserted at kernel entry; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::fused_train_sample
    // -> timeseries::lstm::backward_layer_fused ->
    // timeseries::lstm::LstmLayer::wx
    fn wx(&self) -> &[f64] {
        &self.params[..self.wh_offset()]
    }

    /// Recurrent weights, `4*hidden x hidden`, row-major.
    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction, with buffer
    // lengths debug_asserted at kernel entry; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::fused_train_sample
    // -> timeseries::lstm::backward_layer_fused ->
    // timeseries::lstm::LstmLayer::wh
    fn wh(&self) -> &[f64] {
        &self.params[self.wh_offset()..self.b_offset()]
    }

    /// Gate biases, `4*hidden`.
    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction, with buffer
    // lengths debug_asserted at kernel entry; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::fused_train_sample ->
    // timeseries::lstm::Lstm::forward_fused ->
    // timeseries::lstm::forward_layer_fused -> timeseries::lstm::LstmLayer::b
    fn b(&self) -> &[f64] {
        &self.params[self.b_offset()..]
    }
}

/// Recycled per-layer buffers: forward activations
/// over the whole window plus the gradient accumulator, laid out flat.
#[derive(Debug, Clone, Default)]
struct LayerWs {
    /// Gate activations, `steps x 4*hidden` (blocks i, f, g, o per step).
    gates: Vec<f64>,
    /// Cell states, `steps x hidden`.
    cs: Vec<f64>,
    /// `tanh` of each cell state, `steps x hidden` — written by the
    /// forward gate fusion and reused by backward, which saves one
    /// transcendental per unit-step without changing a single bit (same
    /// input, same function).
    tanh_cs: Vec<f64>,
    /// Hidden states, `steps x hidden`.
    hs: Vec<f64>,
    /// Incoming hidden-state gradient per step, `steps x hidden`. For the
    /// top layer this is the head gradient; for lower layers it is the
    /// `dx` of the layer above, written during backward.
    dh: Vec<f64>,
    /// Flat gradient accumulator matching the `[wx | wh | b]` layout.
    grads: Vec<f64>,
}

/// The dynamic-width training step, for states wider than the fixed-width
/// kernels' 16: one recycled workspace per fit and per forecast, all
/// per-step state hoisted into flat buffers.
#[derive(Debug, Clone)]
struct Workspace {
    layers: Vec<LayerWs>,
    /// Pre-activations for one step, `4*hidden`.
    z: Vec<f64>,
    /// Pre-activation gradients for one step, `4*hidden`.
    dz: Vec<f64>,
    /// Hidden-state gradient carried across steps (`dh_next`).
    dh_carry: Vec<f64>,
    /// Cell-state gradient carried across steps (`dc_next`).
    dc_carry: Vec<f64>,
    /// Next step's cell-state gradient being assembled (`dc_prev`).
    dc_scratch: Vec<f64>,
    /// All-zero hidden-state stand-in for `t == 0`.
    zeros: Vec<f64>,
    /// Head gradient buffer, `hidden + 1`.
    head_grads: Vec<f64>,
}

impl Workspace {
    fn new(layers: &[LstmLayer], steps: usize) -> Self {
        let h = layers.last().map_or(0, |l| l.hidden);
        Workspace {
            layers: layers
                .iter()
                .map(|l| LayerWs {
                    gates: vec![0.0; steps * 4 * l.hidden],
                    cs: vec![0.0; steps * l.hidden],
                    tanh_cs: vec![0.0; steps * l.hidden],
                    hs: vec![0.0; steps * l.hidden],
                    dh: vec![0.0; steps * l.hidden],
                    grads: vec![0.0; l.num_params()],
                })
                .collect(),
            z: vec![0.0; 4 * h],
            dz: vec![0.0; 4 * h],
            dh_carry: vec![0.0; h],
            dc_carry: vec![0.0; h],
            dc_scratch: vec![0.0; h],
            zeros: vec![0.0; h],
            head_grads: vec![0.0; h + 1],
        }
    }
}

/// Fused forward pass of one layer over `steps` inputs (`xs` is the flat
/// `steps x input` input sequence). Writes gates/cell/hidden states into the
/// layer workspace. Bit-identical to the scalar oracle's layer forward: each
/// `z[row]` starts at the bias and accumulates the `wx` terms then the `wh`
/// terms in ascending column order, and the gate fusion replays the scalar
/// sequence. At `t == 0` the recurrent contribution is skipped outright —
/// the oracle adds `w * 0.0` terms there, which cannot change any
/// accumulator bit (an accumulator built from `+=` of finite terms is never
/// `-0.0`).
// lint:allow(panic-path): fn-scope audit: gate and weight offsets are
// affine in the hidden/input dims fixed at construction, with buffer
// lengths debug_asserted at kernel entry; exemplar chain:
// clustering::baselines::StaticClustering::fit ->
// timeseries::lstm::Lstm::fit -> timeseries::lstm::fused_train_sample ->
// timeseries::lstm::Lstm::forward_fused -> timeseries::lstm::forward_layer_fused
fn forward_layer_fused(
    layer: &LstmLayer,
    xs: &[f64],
    steps: usize,
    z: &mut [f64],
    zeros: &[f64],
    lw: &mut LayerWs,
) {
    let h = layer.hidden;
    let input = layer.input;
    for t in 0..steps {
        let z_t = &mut z[..4 * h];
        z_t.copy_from_slice(layer.b());
        gemv_acc(
            z_t,
            layer.wx(),
            4 * h,
            input,
            &xs[t * input..(t + 1) * input],
        );
        let (h_done, h_cur) = lw.hs.split_at_mut(t * h);
        let (c_done, c_cur) = lw.cs.split_at_mut(t * h);
        let tanh_c_cur = &mut lw.tanh_cs[t * h..(t + 1) * h];
        // At t == 0 the recurrent term is `W_h · 0` and `c_prev` is the zero
        // state: skipping the gemv and fusing against the shared zero buffer
        // reproduces the oracle's arithmetic term for term.
        let c_prev: &[f64] = if t > 0 {
            gemv_acc(z_t, layer.wh(), 4 * h, h, &h_done[(t - 1) * h..]);
            &c_done[(t - 1) * h..]
        } else {
            &zeros[..h]
        };
        lstm_gate_fuse(
            z_t,
            c_prev,
            h,
            &mut lw.gates[t * 4 * h..(t + 1) * 4 * h],
            &mut c_cur[..h],
            tanh_c_cur,
            &mut h_cur[..h],
        );
    }
}

/// Fused BPTT of one layer. Consumes the forward workspace plus the incoming
/// per-step hidden gradient (`lw.dh`), accumulates parameter gradients into
/// `lw.grads` (caller pre-zeroes), and, when `dx_out` is given, writes the
/// per-step input gradients (pre-zeroed by the caller) for the layer below.
/// Bit-identical to the scalar oracle's layer backward: the scalar path skips
/// rows with an exactly-zero `dz`, which only ever adds `±0.0` terms — a
/// bitwise no-op on accumulators that `+=` finite values — so the kernels run
/// unconditionally.
#[allow(clippy::too_many_arguments)]
// lint:allow(panic-path): fn-scope audit: gate and weight offsets are
// affine in the hidden/input dims fixed at construction, with buffer
// lengths debug_asserted at kernel entry; exemplar chain:
// clustering::baselines::StaticClustering::fit ->
// timeseries::lstm::Lstm::fit -> timeseries::lstm::fused_train_sample ->
// timeseries::lstm::backward_layer_fused
fn backward_layer_fused(
    layer: &LstmLayer,
    xs: &[f64],
    steps: usize,
    lw_gates: &[f64],
    lw_cs: &[f64],
    lw_tanh_cs: &[f64],
    lw_hs: &[f64],
    lw_dh: &[f64],
    grads: &mut [f64],
    mut dx_out: Option<&mut [f64]>,
    dz: &mut [f64],
    dh_carry: &mut [f64],
    dc_carry: &mut [f64],
    dc_scratch: &mut [f64],
) {
    let h = layer.hidden;
    let input = layer.input;
    let wh_off = layer.wh_offset();
    let b_off = layer.b_offset();
    for v in dh_carry.iter_mut() {
        *v = 0.0;
    }
    for v in dc_carry.iter_mut() {
        *v = 0.0;
    }
    for t in (0..steps).rev() {
        let gates_t = &lw_gates[t * 4 * h..(t + 1) * 4 * h];
        let tanh_c_t = &lw_tanh_cs[t * h..(t + 1) * h];
        for j in 0..h {
            let gi = gates_t[j];
            let gf = gates_t[h + j];
            let gg = gates_t[2 * h + j];
            let go = gates_t[3 * h + j];
            let tanh_c = tanh_c_t[j];
            let dh = lw_dh[t * h + j] + dh_carry[j];
            let dc = dc_carry[j] + dh * go * (1.0 - tanh_c * tanh_c);
            let d_o = dh * tanh_c;
            let cp = if t == 0 { 0.0 } else { lw_cs[(t - 1) * h + j] };
            let d_i = dc * gg;
            let d_f = dc * cp;
            let d_g = dc * gi;
            dz[j] = d_i * gi * (1.0 - gi);
            dz[h + j] = d_f * gf * (1.0 - gf);
            dz[2 * h + j] = d_g * (1.0 - gg * gg);
            dz[3 * h + j] = d_o * go * (1.0 - go);
            dc_scratch[j] = dc * gf;
        }
        let dz_t = &dz[..4 * h];
        rank1_acc(&mut grads[..wh_off], dz_t, &xs[t * input..(t + 1) * input]);
        if t > 0 {
            rank1_acc(&mut grads[wh_off..b_off], dz_t, &lw_hs[(t - 1) * h..t * h]);
        }
        for (g, &d) in grads[b_off..].iter_mut().zip(dz_t) {
            *g += d;
        }
        if let Some(dx) = dx_out.as_deref_mut() {
            gemv_t_acc(
                &mut dx[t * input..(t + 1) * input],
                layer.wx(),
                4 * h,
                input,
                dz_t,
            );
        }
        for v in dh_carry.iter_mut() {
            *v = 0.0;
        }
        gemv_t_acc(dh_carry, layer.wh(), 4 * h, h, dz_t);
        dc_carry.copy_from_slice(dc_scratch);
    }
}

/// Adam optimizer state for one flat parameter vector.
#[derive(Debug, Clone, PartialEq)]
struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: usize,
    lr: f64,
}

impl Adam {
    fn new(n: usize, lr: f64) -> Self {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            lr,
        }
    }

    /// Applies one Adam update, handing each parameter's delta to `out`.
    fn apply(&mut self, grads: &[f64], clip: f64, mut out: impl FnMut(usize, f64)) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        // lint:allow(arith): t counts Adam steps (epochs x samples), far
        // below 2^31 for any fit this crate accepts
        let bc1 = 1.0 - B1.powi(self.t as i32);
        // lint:allow(arith): same bound as the line above
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for (i, &g0) in grads.iter().enumerate() {
            let g = g0.clamp(-clip, clip);
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * g;
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * g * g;
            let mh = self.m[i] / bc1;
            let vh = self.v[i] / bc2;
            out(i, -self.lr * mh / (vh.sqrt() + EPS));
        }
    }
}

/// One training step's kernel, fixed-width ([`TrainKernel`]) or
/// dynamic-width ([`Workspace`]), recycled across a fit.
trait Bptt {
    /// The forward over one normalized window, keeping what BPTT reads;
    /// returns the head's pre-activation.
    fn forward(&mut self, state: &LstmState, window: &[f64]) -> f64;

    /// BPTT of the last forward for `dy` at the head, into the head's and
    /// every layer's parameter gradients.
    fn backward(&mut self, state: &LstmState, window: &[f64], dy: f64);

    /// One Adam step on every parameter from the last backward's gradients.
    fn apply(
        &mut self,
        state: &mut LstmState,
        layer_opts: &mut [Adam],
        head_opt: &mut Adam,
        grad_clip: f64,
    );
}

/// One training step: forward, head + BPTT gradients, Adam updates.
/// Returns the squared error contribution of the sample.
fn train_sample(
    kernel: &mut impl Bptt,
    state: &mut LstmState,
    window: &[f64],
    target: f64,
    layer_opts: &mut [Adam],
    head_opt: &mut Adam,
    grad_clip: f64,
) -> f64 {
    let pre = kernel.forward(state, window);
    let y = pre.max(0.0);
    let err = y - target;
    // dLoss/dy for squared error (factor 2 folded into lr); leaky gradient
    // through the ReLU during training so the output unit cannot die.
    let mut dy = err;
    if pre <= 0.0 {
        dy *= 0.01;
    }
    kernel.backward(state, window, dy);
    kernel.apply(state, layer_opts, head_opt, grad_clip);
    err * err
}

/// Adam on the head: `grads` is the head weights' gradient, then the bias'.
// lint:allow(panic-path): fn-scope audit: Adam hands out indices below
// `grads.len()`, the head's `H + 1`; exemplar chain:
// clustering::baselines::StaticClustering::fit ->
// timeseries::lstm::Lstm::fit -> timeseries::lstm::train_sample ->
// timeseries::lstm::apply_head
fn apply_head(state: &mut LstmState, opt: &mut Adam, grads: &[f64], grad_clip: f64) {
    let h = state.head_w.len();
    let head_w = &mut state.head_w;
    let head_b = &mut state.head_b;
    opt.apply(grads, grad_clip, |i, d| {
        if i < h {
            head_w[i] += d;
        } else {
            *head_b += d;
        }
    });
}

impl Bptt for Workspace {
    /// Writes every layer's gates and cell and hidden states into the
    /// workspace; the top layer's last hidden state stays readable there.
    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction, with buffer
    // lengths debug_asserted at kernel entry; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::train_sample ->
    // timeseries::lstm::Workspace::forward
    fn forward(&mut self, state: &LstmState, window: &[f64]) -> f64 {
        let steps = window.len();
        for (idx, layer) in state.layers.iter().enumerate() {
            let (below, cur) = self.layers.split_at_mut(idx);
            let lw = &mut cur[0];
            if idx == 0 {
                forward_layer_fused(layer, window, steps, &mut self.z, &self.zeros, lw);
            } else {
                forward_layer_fused(
                    layer,
                    &below[idx - 1].hs,
                    steps,
                    &mut self.z,
                    &self.zeros,
                    lw,
                );
            }
        }
        let h = state.head_w.len();
        match self.layers.last() {
            Some(top) if steps > 0 => {
                let last_h = &top.hs[(steps - 1) * h..steps * h];
                state
                    .head_w
                    .iter()
                    .zip(last_h)
                    .map(|(w, hv)| w * hv)
                    .sum::<f64>()
                    + state.head_b
            }
            _ => state.head_b,
        }
    }

    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction, with buffer
    // lengths debug_asserted at kernel entry; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::train_sample ->
    // timeseries::lstm::Workspace::backward
    fn backward(&mut self, state: &LstmState, window: &[f64], dy: f64) {
        let steps = window.len();
        let h = state.head_w.len();
        // Head gradients, then the gradient into the top layer's last hidden
        // state. `validate` guarantees at least one layer, but stay panic-free.
        if let Some(top) = self.layers.last() {
            let last_h = &top.hs[(steps - 1) * h..steps * h];
            for (g, &hv) in self.head_grads[..h].iter_mut().zip(last_h) {
                *g = dy * hv;
            }
        }
        self.head_grads[h] = dy;
        if let Some(top) = self.layers.last_mut() {
            for v in top.dh.iter_mut() {
                *v = 0.0;
            }
            for (j, &w) in state.head_w.iter().enumerate() {
                top.dh[(steps - 1) * h + j] = dy * w;
            }
        }
        // Backward through the stack, top to bottom. Layer `idx` writes its
        // input gradient into layer `idx - 1`'s `dh` buffer; the bottom layer's
        // input gradient is not needed and is skipped.
        for idx in (0..state.layers.len()).rev() {
            let layer = &state.layers[idx];
            let (below, cur) = self.layers.split_at_mut(idx);
            let lw = &mut cur[0];
            for g in lw.grads.iter_mut() {
                *g = 0.0;
            }
            let (xs, dx_out): (&[f64], Option<&mut [f64]>) = match below.last_mut() {
                Some(prev) => {
                    for v in prev.dh.iter_mut() {
                        *v = 0.0;
                    }
                    (&prev.hs, Some(&mut prev.dh))
                }
                None => (window, None),
            };
            backward_layer_fused(
                layer,
                xs,
                steps,
                &lw.gates,
                &lw.cs,
                &lw.tanh_cs,
                &lw.hs,
                &lw.dh,
                &mut lw.grads,
                dx_out,
                &mut self.dz,
                &mut self.dh_carry,
                &mut self.dc_carry,
                &mut self.dc_scratch,
            );
        }
    }

    // lint:allow(panic-path): fn-scope audit: Adam hands out indices below
    // `grads.len()`, the layer's parameter count; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::train_sample ->
    // timeseries::lstm::Workspace::apply
    fn apply(
        &mut self,
        state: &mut LstmState,
        layer_opts: &mut [Adam],
        head_opt: &mut Adam,
        grad_clip: f64,
    ) {
        // In place — no delta vectors allocated.
        for ((layer, lw), opt) in state.layers.iter_mut().zip(&self.layers).zip(layer_opts) {
            let params = &mut layer.params;
            opt.apply(&lw.grads, grad_clip, |i, d| params[i] += d);
        }
        apply_head(state, head_opt, &self.head_grads, grad_clip);
    }
}

/// Fitted network state.
#[derive(Debug, Clone, PartialEq)]
struct LstmState {
    layers: Vec<LstmLayer>,
    /// Dense head weights (`hidden` long) and bias.
    head_w: Vec<f64>,
    head_b: f64,
    /// Min-max normalization learned from the training history.
    lo: f64,
    hi: f64,
    /// Final training MSE (normalized scale), for diagnostics: the last
    /// epoch's, over the windows that epoch trained on.
    train_mse: f64,
    /// History length at the last (re)fit: a refit's new windows are those
    /// whose targets lie at or past it (at 0, every window is new).
    trained_len: usize,
}

impl LstmState {
    fn encode_into(&self, out: &mut Writer) {
        out.seq(&self.layers, |out, layer| {
            out.usize(layer.input);
            out.usize(layer.hidden);
            out.f64s(&layer.params);
        });
        out.f64s(&self.head_w);
        for v in [self.head_b, self.lo, self.hi, self.train_mse] {
            out.f64(v);
        }
        out.usize(self.trained_len);
    }

    fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Ok(LstmState {
            layers: input.seq(|input| {
                Ok(LstmLayer {
                    input: input.usize()?,
                    hidden: input.usize()?,
                    params: input.f64s()?,
                })
            })?,
            head_w: input.f64s()?,
            head_b: input.f64()?,
            lo: input.f64()?,
            hi: input.f64()?,
            train_mse: input.f64()?,
            trained_len: input.usize()?,
        })
    }

    /// The shape every state [`Lstm::fit`] builds under `config`: `layers`
    /// layers of `hidden` units, a scalar input to the first, each layer fed
    /// the hidden state of the one below, `[wx | wh | b]` parameters to
    /// match, and one head weight per top-layer unit. The kernels index by
    /// exactly these, and the forecast dispatches on the head's width.
    fn check_shape(&self, config: &LstmConfig) -> Result<(), String> {
        let mut input = 1usize;
        for (i, layer) in self.layers.iter().enumerate() {
            let h = layer.hidden;
            let params = h
                .checked_add(input)
                .and_then(|w| w.checked_add(1))
                .and_then(|w| w.checked_mul(h))
                .and_then(|w| w.checked_mul(4));
            if layer.input != input || h != config.hidden || params != Some(layer.params.len()) {
                return Err(format!(
                    "lstm layer {i}: {} parameters for input {} and hidden {h} \
                     (expected input {input} and hidden {})",
                    layer.params.len(),
                    layer.input,
                    config.hidden
                ));
            }
            input = h;
        }
        if self.layers.len() != config.layers || self.head_w.len() != input {
            return Err(format!(
                "lstm head: {} weights over {} layers ending at hidden {input} \
                 (config: {} layers)",
                self.head_w.len(),
                self.layers.len(),
                config.layers
            ));
        }
        Ok(())
    }
}

/// Stacked-LSTM forecaster (2 LSTM layers + ReLU dense head by default).
///
/// # Example
///
/// ```no_run
/// use utilcast_timeseries::lstm::{Lstm, LstmConfig};
/// use utilcast_timeseries::Forecaster;
///
/// let series: Vec<f64> = (0..300).map(|t| 0.5 + 0.3 * (t as f64 * 0.2).sin()).collect();
/// let mut model = Lstm::new(LstmConfig { epochs: 30, ..Default::default() });
/// model.fit(&series)?;
/// let fc = model.forecast(&series, 5)?;
/// assert_eq!(fc.len(), 5);
/// # Ok::<(), utilcast_timeseries::TimeSeriesError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    config: LstmConfig,
    state: Option<LstmState>,
}

impl Lstm {
    /// A fitted model read back from a checkpoint is checked before the
    /// kernels index by it, since a checkpoint is outside input: its config
    /// must pass [`Lstm::fit`]'s validation (the forecast slides a
    /// `window`-long slice) and its state must have the shape `fit` builds
    /// under that config. An unfitted model decodes as written, as
    /// [`Lstm::new`] takes any config and `fit` validates it.
    fn checked(self) -> Result<Self, DeError> {
        if let Some(state) = &self.state {
            self.validate()
                .map_err(|e| DeError::new(format!("lstm config: {e}")))?;
            state.check_shape(&self.config).map_err(DeError::new)?;
        }
        Ok(self)
    }

    /// Writes the model into a checkpoint container.
    pub fn encode_into(&self, out: &mut Writer) {
        self.config.encode_into(out);
        out.option(self.state.as_ref(), |out, s| s.encode_into(out));
    }

    /// Reads a model written by [`Lstm::encode_into`]. A fitted state is
    /// held to its config: the config must pass [`Lstm::fit`]'s validation
    /// and the state must have the shape `fit` builds under it.
    pub fn decode(input: &mut Reader) -> Result<Self, DeError> {
        Lstm {
            config: LstmConfig::decode(input)?,
            state: input.option(LstmState::decode)?,
        }
        .checked()
    }

    /// Creates an unfitted model with the given hyperparameters.
    pub fn new(config: LstmConfig) -> Self {
        Lstm {
            config,
            state: None,
        }
    }

    /// The hyperparameters.
    pub fn config(&self) -> &LstmConfig {
        &self.config
    }

    /// Final training MSE on the normalized scale, if fitted.
    pub fn train_mse(&self) -> Option<f64> {
        self.state.as_ref().map(|s| s.train_mse)
    }

    fn validate(&self) -> Result<(), TimeSeriesError> {
        let c = &self.config;
        if c.window == 0 || c.hidden == 0 || c.layers == 0 || c.epochs == 0 {
            return Err(TimeSeriesError::InvalidConfig {
                reason: "window, hidden, layers, and epochs must all be positive".into(),
            });
        }
        if c.learning_rate.is_nan() || c.learning_rate <= 0.0 {
            return Err(TimeSeriesError::InvalidConfig {
                reason: "learning rate must be positive".into(),
            });
        }
        // A fit needs `window + 2` points; the sum must exist.
        if c.window.checked_add(2).is_none() {
            return Err(TimeSeriesError::InvalidConfig {
                reason: format!("window {} is too long", c.window),
            });
        }
        Ok(())
    }
}

/// Gate pre-activations, gradients or weights of one column, regrouped into
/// the four gate blocks `(i, f, g, o)` of `H` rows each.
type Gates<const H: usize> = [[f64; H]; 4];

/// One layer's weights for the fixed-width kernels: the row-major
/// `[wx | wh | b]` transposed into per-gate-block columns, one per layer
/// input, one per hidden unit, then the biases. One column's terms reach a
/// gate block's `H` rows together, while every row still gains its terms in
/// ascending column order — `gemv_acc`'s per-row order.
struct InferLayer<const H: usize> {
    input: usize,
    /// `input + H + 1` columns: `wx`'s, `wh`'s, then `b`.
    cols: Vec<Gates<H>>,
}

impl<const H: usize> InferLayer<H> {
    /// Transposes `layer`, whose hidden width the caller has checked is `H`.
    fn new(layer: &LstmLayer) -> Self {
        debug_assert_eq!(layer.hidden, H);
        let mut fwd = InferLayer {
            input: layer.input,
            cols: vec![[[0.0; H]; 4]; layer.input + H + 1],
        };
        fwd.load(&layer.params);
        fwd
    }

    /// Rewrites the columns from the layer's row-major `[wx | wh | b]`.
    fn load(&mut self, params: &[f64]) {
        let (wx, rest) = params.split_at(4 * H * self.input);
        let (wh, b) = rest.split_at(4 * H * H);
        let (wx_cols, rest) = self.cols.split_at_mut(self.input);
        let (wh_cols, b_col) = rest.split_at_mut(H);
        for (cols, block) in [(wx_cols, wx), (wh_cols, wh), (b_col, b)] {
            let width = cols.len();
            for (g, rows) in block.chunks_exact(H * width).enumerate() {
                for (j, row) in rows.chunks_exact(width).enumerate() {
                    for (col, &w) in cols.iter_mut().zip(row) {
                        col[g][j] = w;
                    }
                }
            }
        }
    }

    /// One step's activated gates on input `x`; `h` is the previous hidden
    /// state, `None` at a window's first step, where the state is the zero
    /// reset and the `wh` terms are skipped as in [`forward_layer_fused`].
    ///
    /// Bitwise equal to the dynamic-width forward's gates: each row starts at
    /// `b` and adds its `wx` then its `wh` terms in ascending column order;
    /// one activation pass computes `sigmoid(m·z)` with `m = 2` on the
    /// candidate block and `1` elsewhere (`1·z` is exact), then `g = 2s − 1`
    /// on that block — `kernels::tanh` spelled out. The sums run one gate
    /// block at a time, so a block's `H` accumulators stay in registers
    /// across all its columns.
    #[inline(always)]
    // lint:allow(panic-path): fn-scope audit: `cols` holds `input + H + 1`
    // columns from construction on; exemplar chain:
    // timeseries::lstm::Lstm::forecast -> timeseries::lstm::InferKernel::predict
    // -> timeseries::lstm::InferLayer::step -> timeseries::lstm::InferLayer::gates
    fn gates(&self, x: &[f64], h: Option<&[f64; H]>) -> Gates<H> {
        let wx = &self.cols[..self.input];
        let wh = &self.cols[self.input..self.input + H];
        let mut z = self.cols[self.input + H];
        for (g, zg) in z.iter_mut().enumerate() {
            let mut acc = *zg;
            for (col, &xv) in wx.iter().zip(x) {
                for (a, &w) in acc.iter_mut().zip(&col[g]) {
                    *a += w * xv;
                }
            }
            if let Some(h) = h {
                for (col, &hv) in wh.iter().zip(h) {
                    for (a, &w) in acc.iter_mut().zip(&col[g]) {
                        *a += w * hv;
                    }
                }
            }
            *zg = acc;
        }
        for (block, m) in z.iter_mut().zip([1.0, 1.0, 2.0, 1.0]) {
            for v in block.iter_mut() {
                *v = sigmoid(m * *v);
            }
        }
        for v in z[2].iter_mut() {
            *v = 2.0 * *v - 1.0;
        }
        z
    }

    /// Advances the running `(h, c)` by one step on input `x`; `recur` is
    /// false at a window's first step. `c = f·c_prev + i·g` and
    /// `h = o·tanh(c)` follow `lstm_gate_fuse` term for term.
    ///
    /// Kept out of line: inlined into the forecast driver's sixteen
    /// monomorphisations it ran at about twice the cost.
    #[inline(never)]
    fn step(&self, x: &[f64], recur: bool, [h, c]: &mut [[f64; H]; 2]) {
        let [gi, gf, gg, go] = self.gates(x, recur.then_some(&*h));
        for (((cv, &i), &f), &g) in c.iter_mut().zip(&gi).zip(&gf).zip(&gg) {
            *cv = f * *cv + i * g;
        }
        for ((hv, &o), &cv) in h.iter_mut().zip(&go).zip(&*c) {
            *hv = o * tanh(cv);
        }
    }

    /// [`InferLayer::step`] keeping what BPTT reads: the step's gates, cell
    /// state, `tanh(c)` and hidden state, written into `out`.
    #[inline(never)]
    fn record(&self, x: &[f64], recur: bool, [h, c]: &mut [[f64; H]; 2], out: &mut StepRecord<H>) {
        let gates = self.gates(x, recur.then_some(&*h));
        let [gi, gf, gg, go] = &gates;
        for (((cv, &i), &f), &g) in c.iter_mut().zip(gi).zip(gf).zip(gg) {
            *cv = f * *cv + i * g;
        }
        for (((hv, tc), &o), &cv) in h.iter_mut().zip(&mut out.tanh_c).zip(go).zip(&*c) {
            *tc = tanh(cv);
            *hv = o * *tc;
        }
        out.gates = gates;
        out.c = *c;
        out.h = *h;
    }
}

/// The inference-only forward at hidden width `H`, built once per forecast:
/// the transposed layers and each layer's running `(h, c)`, nothing else.
/// A wider state forecasts through [`Workspace`]'s forward.
struct InferKernel<const H: usize> {
    layers: Vec<InferLayer<H>>,
    /// Running `[h, c]` per layer.
    state: Vec<[[f64; H]; 2]>,
}

impl<const H: usize> InferKernel<H> {
    fn new(state: &LstmState) -> Self {
        InferKernel {
            layers: state.layers.iter().map(InferLayer::new).collect(),
            state: vec![[[0.0; H]; 2]; state.layers.len()],
        }
    }

    /// The head's pre-activation on one normalized window, bitwise equal to
    /// the training forward's. Steps run time-major: each layer's step `t`
    /// reads the step-`t` hidden state of the layer below, the value the
    /// training forwards' layer-major order reads too.
    fn predict(&mut self, params: &LstmState, window: &[f64]) -> f64 {
        // The t = 0 state reset: every window starts from zero (h, c).
        self.state.fill([[0.0; H]; 2]);
        for (t, &x) in window.iter().enumerate() {
            let mut input: &[f64] = std::slice::from_ref(&x);
            for (layer, hc) in self.layers.iter().zip(self.state.iter_mut()) {
                layer.step(input, t > 0, hc);
                let [h, _] = &*hc;
                input = h;
            }
        }
        match self.state.last() {
            Some([top_h, _]) if !window.is_empty() => {
                params
                    .head_w
                    .iter()
                    .zip(top_h)
                    .map(|(w, hv)| w * hv)
                    .sum::<f64>()
                    + params.head_b
            }
            _ => params.head_b,
        }
    }
}

/// What one step of one layer leaves for BPTT.
#[derive(Debug, Clone, Copy)]
struct StepRecord<const H: usize> {
    /// Activated gates.
    gates: Gates<H>,
    /// Cell state.
    c: [f64; H],
    /// `tanh(c)`, computed once by the forward.
    tanh_c: [f64; H],
    /// Hidden state.
    h: [f64; H],
}

/// One layer of the fixed-width training step, recycled across a fit.
struct TrainLayer<const H: usize> {
    /// The transposed weights the forward reads, reloaded after each Adam
    /// step.
    fwd: InferLayer<H>,
    /// The forward's record of each step.
    steps: Vec<StepRecord<H>>,
    /// Incoming hidden-state gradient per step: the head's for the top
    /// layer, the layer above's input gradient for the others.
    dh: Vec<[f64; H]>,
    /// Pre-activation gradient per step.
    dz: Vec<Gates<H>>,
    /// Parameter gradient in the row-major `[wx | wh | b]` layout.
    grads: Vec<f64>,
}

impl<const H: usize> TrainLayer<H> {
    fn new(layer: &LstmLayer, steps: usize) -> Self {
        let zero = [0.0; H];
        TrainLayer {
            fwd: InferLayer::new(layer),
            steps: vec![
                StepRecord {
                    gates: [zero; 4],
                    c: zero,
                    tanh_c: zero,
                    h: zero,
                };
                steps
            ],
            dh: vec![zero; steps],
            dz: vec![[zero; 4]; steps],
            grads: vec![0.0; layer.num_params()],
        }
    }

    /// The forward over one window, `xs` yielding each step's input.
    fn forward<'a>(&mut self, xs: impl Iterator<Item = &'a [f64]>) {
        // The t = 0 state reset: every window starts from zero (h, c).
        let mut hc = [[0.0; H]; 2];
        for (t, (out, x)) in self.steps.iter_mut().zip(xs).enumerate() {
            self.fwd.record(x, t > 0, &mut hc, out);
        }
    }

    /// BPTT through this layer from its `dh`: fills `grads` from `layer`, the
    /// row-major parameters the forward ran on, and, when a layer sits below
    /// (whose hidden states were this layer's inputs), that layer's `dh`.
    /// The bottom layer's inputs are the window's values.
    ///
    /// Bitwise equal to [`backward_layer_fused`]: only the serial chain —
    /// `dz`, then `dh_carry = Whᵀ·dz` — runs inside the reverse time loop,
    /// with its `dh`/`dc` carries in registers. Every weight and bias
    /// gradient is summed after it, over `t` descending from `0.0`, the
    /// order the per-step rank-1 updates accumulated in; each input gradient
    /// for the layer below is its own `gemv_t_acc` sum into a zeroed output,
    /// ascending `r`.
    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::train_sample ->
    // timeseries::lstm::TrainKernel::backward ->
    // timeseries::lstm::TrainLayer::backward
    fn backward(&mut self, layer: &LstmLayer, window: &[f64], below: Option<&mut TrainLayer<H>>) {
        let (wh_rows, _) = layer.wh().as_chunks::<H>();
        let mut dh_carry = [0.0; H];
        let mut dc_carry = [0.0; H];
        for (t, (dz, dh_in)) in self.dz.iter_mut().zip(&self.dh).enumerate().rev() {
            let StepRecord {
                gates: [gi, gf, gg, go],
                tanh_c,
                ..
            } = &self.steps[t];
            let c_prev = match t.checked_sub(1) {
                Some(p) => self.steps[p].c,
                None => [0.0; H],
            };
            let dh: [f64; H] = std::array::from_fn(|j| dh_in[j] + dh_carry[j]);
            let dc: [f64; H] = std::array::from_fn(|j| {
                dc_carry[j] + dh[j] * go[j] * (1.0 - tanh_c[j] * tanh_c[j])
            });
            *dz = [
                std::array::from_fn(|j| dc[j] * gg[j] * gi[j] * (1.0 - gi[j])),
                std::array::from_fn(|j| dc[j] * c_prev[j] * gf[j] * (1.0 - gf[j])),
                std::array::from_fn(|j| dc[j] * gi[j] * (1.0 - gg[j] * gg[j])),
                std::array::from_fn(|j| dh[j] * tanh_c[j] * go[j] * (1.0 - go[j])),
            ];
            dc_carry = std::array::from_fn(|j| dc[j] * gf[j]);
            dh_carry = rows_t_dot(wh_rows, dz);
        }
        let (g_wx, rest) = self.grads.split_at_mut(layer.wh_offset());
        let (g_wh, g_b) = rest.split_at_mut(4 * H * H);
        match &below {
            Some(below) => {
                let xs = below.steps.iter().map(|s| &s.h);
                outer_sum(g_wx, self.dz.iter().zip(xs).rev());
            }
            None => outer_sum(g_wx, self.dz.iter().zip(window.as_chunks::<1>().0).rev()),
        }
        let h_prev = self.steps.iter().map(|s| &s.h);
        outer_sum(g_wh, self.dz.iter().skip(1).zip(h_prev).rev());
        let mut db = [[0.0; H]; 4];
        for dz in self.dz.iter().rev() {
            for (a, &d) in db.as_flattened_mut().iter_mut().zip(dz.as_flattened()) {
                *a += d;
            }
        }
        g_b.copy_from_slice(db.as_flattened());
        if let Some(below) = below {
            let (wx_rows, _) = layer.wx().as_chunks::<H>();
            for (dx, dz) in below.dh.iter_mut().zip(&self.dz) {
                *dx = rows_t_dot(wx_rows, dz);
            }
        }
    }
}

/// `Wᵀ·dz` for a `4H x C` weight block given by its rows: each output sums
/// `dz[r]·W[r][c]` from `0.0` in ascending `r` — `gemv_t_acc`'s order into a
/// zeroed output — with all `C` sums in registers.
fn rows_t_dot<const H: usize, const C: usize>(rows: &[[f64; C]], dz: &Gates<H>) -> [f64; C] {
    let mut acc = [0.0; C];
    for (row, &d) in rows.iter().zip(dz.as_flattened()) {
        for (a, &w) in acc.iter_mut().zip(row) {
            *a += d * w;
        }
    }
    acc
}

/// Writes the `4H x C` gradient `out[r][c] = Σ dz[r]·x[c]` over `pairs`, each
/// sum from `0.0` in the order `pairs` gives: the order the per-step
/// `rank1_acc` updates accumulated in, with each row's `C` sums in registers
/// across the pairs.
fn outer_sum<'a, const H: usize, const C: usize>(
    out: &mut [f64],
    pairs: impl Iterator<Item = (&'a Gates<H>, &'a [f64; C])> + Clone,
) {
    for (r, row) in out.as_chunks_mut::<C>().0.iter_mut().enumerate() {
        let mut acc = [0.0; C];
        for (dz, x) in pairs.clone() {
            let d = dz.as_flattened()[r];
            for (a, &xv) in acc.iter_mut().zip(x) {
                *a += d * xv;
            }
        }
        *row = acc;
    }
}

/// The fixed-width training step at hidden width `H`, built once per fit:
/// per layer, the transposed weights the forward reads, each step's record
/// and the gradients, all at register width.
struct TrainKernel<const H: usize> {
    layers: Vec<TrainLayer<H>>,
    /// Head gradient: the `H` weights', then the bias'.
    head_grads: Vec<f64>,
}

impl<const H: usize> TrainKernel<H> {
    /// The kernel for windows of `steps` values over `state`, whose width
    /// the caller has checked is `H`.
    fn new(state: &LstmState, steps: usize) -> Self {
        TrainKernel {
            layers: state
                .layers
                .iter()
                .map(|l| TrainLayer::new(l, steps))
                .collect(),
            head_grads: vec![0.0; H + 1],
        }
    }
}

impl<const H: usize> Bptt for TrainKernel<H> {
    fn forward(&mut self, state: &LstmState, window: &[f64]) -> f64 {
        let mut below: Option<&TrainLayer<H>> = None;
        for layer in self.layers.iter_mut() {
            match below {
                Some(b) => layer.forward(b.steps.iter().map(|s| s.h.as_slice())),
                None => layer.forward(window.chunks_exact(1)),
            }
            below = Some(layer);
        }
        match self.layers.last().and_then(|l| l.steps.last()) {
            Some(top) => {
                state
                    .head_w
                    .iter()
                    .zip(&top.h)
                    .map(|(w, hv)| w * hv)
                    .sum::<f64>()
                    + state.head_b
            }
            None => state.head_b,
        }
    }

    fn backward(&mut self, state: &LstmState, window: &[f64], dy: f64) {
        if let Some(top) = self.layers.last_mut() {
            let last_h = top.steps.last().map_or([0.0; H], |s| s.h);
            let (w_grads, b_grad) = self.head_grads.split_at_mut(H);
            for (g, &hv) in w_grads.iter_mut().zip(&last_h) {
                *g = dy * hv;
            }
            b_grad.fill(dy);
            top.dh.fill([0.0; H]);
            if let Some(last) = top.dh.last_mut() {
                for (d, &w) in last.iter_mut().zip(&state.head_w) {
                    *d = dy * w;
                }
            }
        }
        for (idx, layer) in state.layers.iter().enumerate().rev() {
            let (below, cur) = self.layers.split_at_mut(idx);
            if let Some(cur) = cur.first_mut() {
                cur.backward(layer, window, below.last_mut());
            }
        }
    }

    // lint:allow(panic-path): fn-scope audit: Adam hands out indices below
    // `grads.len()`, the layer's parameter count; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::train_sample ->
    // timeseries::lstm::TrainKernel::apply
    fn apply(
        &mut self,
        state: &mut LstmState,
        layer_opts: &mut [Adam],
        head_opt: &mut Adam,
        grad_clip: f64,
    ) {
        for ((layer, kl), opt) in state
            .layers
            .iter_mut()
            .zip(&mut self.layers)
            .zip(layer_opts)
        {
            let params = &mut layer.params;
            opt.apply(&kl.grads, grad_clip, |i, d| params[i] += d);
            kl.fwd.load(params);
        }
        apply_head(state, head_opt, &self.head_grads, grad_clip);
    }
}

impl Lstm {
    /// The one training driver of [`Forecaster::fit`] and
    /// [`Forecaster::refit`], over any per-sample training step `(state,
    /// window, target, layer optimizers, head optimizer) -> squared error` —
    /// the seam through which the `#[cfg(test)]` oracle runs its scalar step
    /// on the same normalization, initialization and shuffle sequence.
    ///
    /// `start` is the state training continues from. `None` is a cold fit:
    /// weights drawn from `seed`, every window of the history trained on,
    /// shuffled by the same stream. `Some` is a warm refit: the outgoing
    /// weights, trained on the windows whose targets lie at or past its
    /// `trained_len` plus the [`REPLAY_WINDOWS`] before them, shuffled by a
    /// stream derived from `seed` and the history length. Either way the
    /// Adam moments start at zero and the normalization is recomputed over
    /// `history`, and `self` is only written on success.
    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction, with buffer
    // lengths debug_asserted at kernel entry; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::Lstm::fit_with
    fn fit_with(
        &mut self,
        history: &[f64],
        start: Option<LstmState>,
        mut train_sample: impl FnMut(&mut LstmState, &[f64], f64, &mut [Adam], &mut Adam) -> f64,
    ) -> Result<(), TimeSeriesError> {
        self.validate()?;
        let c = self.config.clone();
        let needed = c.window + 2;
        if history.len() < needed {
            return Err(TimeSeriesError::TooShort {
                needed,
                got: history.len(),
            });
        }
        require_finite(history)?;
        // Min-max normalization to [0, 1].
        let lo = history.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = history.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = if hi > lo { hi - lo } else { 1.0 };
        let norm: Vec<f64> = history.iter().map(|v| (v - lo) / span).collect();

        let (mut rng, mut state, first) = match start {
            Some(outgoing) => {
                let salt = (history.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let first = outgoing
                    .trained_len
                    .min(norm.len())
                    .saturating_sub(REPLAY_WINDOWS)
                    .max(c.window);
                (StdRng::seed_from_u64(c.seed ^ salt), outgoing, first)
            }
            None => {
                let mut rng = StdRng::seed_from_u64(c.seed);
                let mut layers = Vec::with_capacity(c.layers);
                let mut input = 1;
                for _ in 0..c.layers {
                    layers.push(LstmLayer::new(input, c.hidden, &mut rng));
                    input = c.hidden;
                }
                let head_w: Vec<f64> = (0..c.hidden)
                    .map(|_| normal(&mut rng, 0.0, (1.0 / c.hidden as f64).sqrt()))
                    .collect();
                let state = LstmState {
                    layers,
                    head_w,
                    head_b: 0.0,
                    lo,
                    hi,
                    train_mse: f64::INFINITY,
                    trained_len: 0,
                };
                (rng, state, c.window)
            }
        };
        state.lo = lo;
        state.hi = hi;

        // Training windows: one per target index from `first` on.
        let mut samples: Vec<(usize, f64)> = (first..norm.len())
            .map(|t| (t - c.window, norm[t]))
            .collect();
        let mut layer_opts: Vec<Adam> = state
            .layers
            .iter()
            .map(|l| Adam::new(l.num_params(), c.learning_rate))
            .collect();
        let mut head_opt = Adam::new(state.head_w.len() + 1, c.learning_rate);

        let mut last_epoch_mse = f64::INFINITY;
        for _epoch in 0..c.epochs {
            // Shuffle each epoch: utilization windows are strongly
            // autocorrelated, and chronological per-sample updates would
            // bias the network towards the end of the series.
            for i in (1..samples.len()).rev() {
                use rand::Rng;
                let j = rng.gen_range(0..=i);
                samples.swap(i, j);
            }
            let mut sse = 0.0;
            for &(start, target) in &samples {
                let window = &norm[start..start + c.window];
                sse += train_sample(&mut state, window, target, &mut layer_opts, &mut head_opt);
            }
            last_epoch_mse = sse / samples.len() as f64;
        }
        if !last_epoch_mse.is_finite() {
            return Err(TimeSeriesError::FitDiverged);
        }
        state.train_mse = last_epoch_mse;
        state.trained_len = norm.len();
        self.state = Some(state);
        Ok(())
    }

    /// [`Lstm::fit_with`] through the training step at the width training
    /// starts from (the outgoing state's, else the config's): the
    /// fixed-width kernel up to hidden 16, the dynamic-width one beyond.
    fn fit_fused(
        &mut self,
        history: &[f64],
        start: Option<LstmState>,
    ) -> Result<(), TimeSeriesError> {
        let width = start
            .as_ref()
            .map_or(self.config.hidden, |s| s.head_w.len());
        by_width!(width, H => self.fit_by(history, start, TrainKernel::<H>::new),
            _ => self.fit_by(history, start, |state, steps| Workspace::new(&state.layers, steps)))
    }

    /// [`Lstm::fit_with`] through [`train_sample`] on one kernel per fit,
    /// built by `kernel` from the starting state and the window length.
    fn fit_by<K: Bptt>(
        &mut self,
        history: &[f64],
        start: Option<LstmState>,
        kernel: impl Fn(&LstmState, usize) -> K,
    ) -> Result<(), TimeSeriesError> {
        let grad_clip = self.config.grad_clip;
        let mut k = None;
        self.fit_with(
            history,
            start,
            |state, window, target, layer_opts, head_opt| {
                let k = k.get_or_insert_with(|| kernel(state, window.len()));
                train_sample(k, state, window, target, layer_opts, head_opt, grad_clip)
            },
        )
    }

    /// The closed-loop forecast driver over a one-step predictor `(state,
    /// normalized window) -> normalized prediction`: the inference forward
    /// or, for wide states, the training forward. The window slides over one
    /// buffer of `window + horizon` normalized values — the clamped history
    /// tail, then each clamped prediction fed back — where the oracle's
    /// driver shifts a `window`-long `Vec` per step.
    // lint:allow(panic-path): fn-scope audit: `buf` holds `w + k` values
    // when step `k` reads `buf[k..k + w]`, and `history.len() >= w` is
    // checked above the tail slice; exemplar chain:
    // timeseries::arima::Arima::forecast_with_interval ->
    // timeseries::lstm::Lstm::forecast ->
    // timeseries::lstm::Lstm::forecast_with
    fn forecast_with(
        &self,
        history: &[f64],
        horizon: usize,
        mut predict: impl FnMut(&LstmState, &[f64]) -> f64,
    ) -> Result<Vec<f64>, TimeSeriesError> {
        let state = self.state.as_ref().ok_or(TimeSeriesError::NotFitted)?;
        let w = self.config.window;
        if history.len() < w {
            return Err(TimeSeriesError::TooShort {
                needed: w,
                got: history.len(),
            });
        }
        let span = if state.hi > state.lo {
            state.hi - state.lo
        } else {
            1.0
        };
        let mut buf = Vec::with_capacity(w + horizon);
        buf.extend(
            history[history.len() - w..]
                .iter()
                .map(|v| ((v - state.lo) / span).clamp(-0.5, 1.5)),
        );
        let mut out = Vec::with_capacity(horizon);
        for k in 0..horizon {
            let y = predict(state, &buf[k..k + w]);
            out.push(state.lo + y * span);
            // Clamp the recursive feedback to the (slightly padded)
            // normalized training range so multi-step recursion cannot
            // drift off the manifold the network was trained on.
            buf.push(y.clamp(0.0, 1.25));
        }
        Ok(out)
    }

    /// [`Lstm::forecast_with`] through the inference forward at width `H`.
    fn forecast_at<const H: usize>(
        &self,
        history: &[f64],
        horizon: usize,
    ) -> Result<Vec<f64>, TimeSeriesError> {
        let mut kernel = None;
        self.forecast_with(history, horizon, |state, window| {
            let kernel = kernel.get_or_insert_with(|| InferKernel::<H>::new(state));
            kernel.predict(state, window).max(0.0)
        })
    }
}

impl Forecaster for Lstm {
    fn fit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        self.fit_fused(history, None)
    }

    /// Continues from the outgoing weights, with fresh Adam moments, on the
    /// windows new since the last (re)fit plus [`REPLAY_WINDOWS`] older
    /// ones; an unfitted model is [`Forecaster::fit`] bit for bit. The result
    /// depends on the outgoing fit, so two models refitted on one history
    /// agree only if they were fitted alike before; a caller whose series
    /// broke calls `fit`. A history that slid rather than grew (a capped
    /// training window) holds no new windows, and the refit trains on the
    /// replay tail alone.
    fn refit(&mut self, history: &[f64]) -> Result<(), TimeSeriesError> {
        let outgoing = self.state.clone();
        self.fit_fused(history, outgoing)
    }

    /// Dispatches on the fitted state's own width (`head_w.len()`, which
    /// every layer shares): the inference-only forward up to hidden 16, the
    /// dynamic-width training forward beyond.
    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        let width = self.state.as_ref().map_or(0, |s| s.head_w.len());
        by_width!(width, H => self.forecast_at::<H>(history, horizon), _ => {
            let mut ws = None;
            self.forecast_with(history, horizon, |state, window| {
                let ws = ws.get_or_insert_with(|| Workspace::new(&state.layers, window.len()));
                ws.forward(state, window).max(0.0)
            })
        })
    }

    fn name(&self) -> &'static str {
        "lstm"
    }
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod libm_gate;
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> LstmConfig {
        LstmConfig {
            window: 8,
            hidden: 8,
            layers: 2,
            epochs: 30,
            learning_rate: 0.02,
            grad_clip: 1.0,
            seed: 3,
        }
    }

    #[test]
    fn learns_constant_series() {
        let series = vec![0.7; 60];
        let mut m = Lstm::new(tiny_config());
        m.fit(&series).unwrap();
        let fc = m.forecast(&series, 3).unwrap();
        for f in fc {
            assert!((f - 0.7).abs() < 0.1, "forecast {f} should be near 0.7");
        }
    }

    #[test]
    fn learns_sine_wave_one_step() {
        let series: Vec<f64> = (0..240)
            .map(|t| 0.5 + 0.4 * (t as f64 * 2.0 * std::f64::consts::PI / 24.0).sin())
            .collect();
        let mut m = Lstm::new(LstmConfig {
            epochs: 80,
            window: 12,
            hidden: 12,
            ..tiny_config()
        });
        m.fit(&series).unwrap();
        // One-step forecast from the training tail should be close to the
        // continuation of the sine.
        let fc = m.forecast(&series, 1).unwrap();
        let truth = 0.5 + 0.4 * (240.0 * 2.0 * std::f64::consts::PI / 24.0).sin();
        assert!(
            (fc[0] - truth).abs() < 0.12,
            "one-step forecast {} vs truth {truth}",
            fc[0]
        );
        // Training should have reduced the MSE well below the series
        // variance (~0.08).
        assert!(
            m.train_mse().unwrap() < 0.02,
            "train mse {}",
            m.train_mse().unwrap()
        );
    }

    #[test]
    fn beats_mean_on_trending_series() {
        let series: Vec<f64> = (0..150).map(|t| 0.2 + t as f64 * 0.003).collect();
        let mut m = Lstm::new(LstmConfig {
            epochs: 60,
            ..tiny_config()
        });
        m.fit(&series).unwrap();
        let fc = m.forecast(&series, 1).unwrap()[0];
        let truth = 0.2 + 150.0 * 0.003;
        let mean = utilcast_linalg::stats::mean(&series);
        assert!(
            (fc - truth).abs() < (mean - truth).abs(),
            "lstm {fc} should beat mean {mean} against truth {truth}"
        );
    }

    #[test]
    fn forecast_before_fit_errors() {
        let m = Lstm::new(tiny_config());
        assert_eq!(m.forecast(&[0.0; 20], 1), Err(TimeSeriesError::NotFitted));
    }

    #[test]
    fn short_history_errors() {
        let mut m = Lstm::new(tiny_config());
        assert!(matches!(
            m.fit(&[1.0, 2.0, 3.0]),
            Err(TimeSeriesError::TooShort { .. })
        ));
        // Forecast with too-short history also errors.
        let series = vec![0.5; 40];
        m.fit(&series).unwrap();
        assert!(matches!(
            m.forecast(&[1.0, 2.0], 1),
            Err(TimeSeriesError::TooShort { .. })
        ));
    }

    /// `m` written into a checkpoint container and read back.
    fn through_container(m: &Lstm) -> Result<Lstm, DeError> {
        let mut out = Writer::new();
        m.encode_into(&mut out);
        let bytes = out.seal();
        let mut input = Reader::open(&bytes)?;
        let back = Lstm::decode(&mut input)?;
        input.finish()?;
        Ok(back)
    }

    #[test]
    fn a_checkpointed_state_with_the_wrong_shape_is_a_decode_error() {
        let mut m = Lstm::new(tiny_config());
        m.fit(&[0.5; 40]).unwrap();
        assert_eq!(through_container(&m), Ok(m.clone()));
        // Rewrites one integer field of the first layer.
        let patch = |field: &str, to: usize| {
            let mut bad = m.clone();
            let layer = &mut bad.state.as_mut().unwrap().layers[0];
            match field {
                "hidden" => layer.hidden = to,
                _ => layer.input = to,
            }
            through_container(&bad)
        };
        let hidden = tiny_config().hidden;
        for (field, to) in [("hidden", hidden + 1), ("hidden", 0), ("input", 2)] {
            let err = patch(field, to).unwrap_err();
            assert!(err.to_string().contains("lstm layer 0"), "{field}: {err}");
        }
        assert!(patch("hidden", hidden).is_ok());
    }

    /// `m` with its config rewritten by `change`.
    fn with_config(m: &Lstm, change: impl FnOnce(&mut LstmConfig)) -> Lstm {
        let mut m = m.clone();
        change(&mut m.config);
        m
    }

    #[test]
    fn a_checkpointed_config_that_fails_validation_is_a_decode_error() {
        let mut m = Lstm::new(tiny_config());
        m.fit(&[0.5; 40]).unwrap();
        // `window: 0` used to decode and then panic in the first forecast.
        let invalid: [fn(&mut LstmConfig); 2] = [|c| c.window = 0, |c| c.epochs = 0];
        for change in invalid {
            let err = through_container(&with_config(&m, change)).unwrap_err();
            assert!(err.to_string().contains("lstm config"), "{err}");
        }
        // An unfitted model keeps any config, as `Lstm::new` does; `fit`
        // is what validates it.
        let unfitted = Lstm::new(tiny_config());
        let back = through_container(&with_config(&unfitted, |c| c.window = 0)).unwrap();
        assert_eq!(back.config().window, 0);
        assert_eq!(
            back.forecast(&[0.5; 40], 2),
            Err(TimeSeriesError::NotFitted)
        );
    }

    #[test]
    fn a_checkpointed_config_that_disagrees_with_the_state_is_a_decode_error() {
        let mut m = Lstm::new(tiny_config());
        m.fit(&[0.5; 40]).unwrap();
        let c = tiny_config();
        type Change = fn(&mut LstmConfig);
        let disagreeing: [(Change, &str); 4] = [
            (|c| c.hidden += 1, "lstm layer 0"),
            (|c| c.hidden -= 1, "lstm layer 0"),
            (|c| c.layers += 1, "lstm head"),
            (|c| c.layers -= 1, "lstm head"),
        ];
        for (change, names) in disagreeing {
            let bad = with_config(&m, change);
            let err = through_container(&bad).unwrap_err();
            assert!(err.to_string().contains(names), "{:?}: {err}", bad.config);
        }
        // A window other than the one fitted is a valid config: the state
        // does not record it.
        let longer = through_container(&with_config(&m, |c| c.window = 9)).unwrap();
        assert_eq!(longer.config().window, 9);
        assert_ne!(c.window, 9);
        assert_eq!(longer.forecast(&[0.5; 40], 3).unwrap().len(), 3);
    }

    /// Windows one training call visits, counted through the driver's seam.
    fn windows_trained(m: &mut Lstm, history: &[f64], warm: bool) -> usize {
        let start = if warm { m.state.clone() } else { None };
        let mut visits = 0;
        m.fit_with(history, start, |_, _, _, _, _| {
            visits += 1;
            0.0
        })
        .unwrap();
        visits / m.config.epochs
    }

    #[test]
    fn refit_trains_the_new_windows_and_the_replay_tail() {
        let series: Vec<f64> = (0..400).map(|t| (t as f64 * 0.3).sin()).collect();
        let w = tiny_config().window;
        let mut m = Lstm::new(tiny_config());
        assert_eq!(windows_trained(&mut m, &series[..100], false), 100 - w);
        // 16 new targets (100..116) and the 16 before them.
        assert_eq!(windows_trained(&mut m, &series[..116], true), 32);
        assert_eq!(windows_trained(&mut m, &series[..400], true), 284 + 16);
        // Nothing new, or a history that shrank: the replay tail alone.
        assert_eq!(windows_trained(&mut m, &series[..400], true), 16);
        assert_eq!(windows_trained(&mut m, &series[..50], true), 16);
        // Little history behind the replay tail: every window there is.
        assert_eq!(windows_trained(&mut m, &series[..20], true), 20 - w);
        // A state at `trained_len` 0: all new.
        m.state.as_mut().unwrap().trained_len = 0;
        assert_eq!(windows_trained(&mut m, &series[..120], true), 120 - w);
        // A cold fit ignores what the model holds.
        assert_eq!(windows_trained(&mut m, &series[..120], false), 120 - w);
    }

    #[test]
    fn refit_is_fit_on_an_unfitted_model_and_warm_on_a_fitted_one() {
        let series: Vec<f64> = (0..140)
            .map(|t| 0.5 + 0.3 * (t as f64 * 0.3).sin())
            .collect();
        let mut cold = Lstm::new(tiny_config());
        let mut refitted = Lstm::new(tiny_config());
        cold.fit(&series[..120]).unwrap();
        refitted.refit(&series[..120]).unwrap();
        assert_eq!(refitted, cold);
        assert_eq!(refitted.state.as_ref().unwrap().trained_len, 120);
        let outgoing = refitted.clone();
        refitted.refit(&series).unwrap();
        cold.fit(&series).unwrap();
        assert_ne!(refitted, cold);
        assert_ne!(refitted, outgoing);
        assert_eq!(refitted.state.as_ref().unwrap().trained_len, 140);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut m = Lstm::new(LstmConfig {
            window: 0,
            ..tiny_config()
        });
        assert!(matches!(
            m.fit(&[0.0; 50]),
            Err(TimeSeriesError::InvalidConfig { .. })
        ));
        let mut m = Lstm::new(LstmConfig {
            learning_rate: 0.0,
            ..tiny_config()
        });
        assert!(matches!(
            m.fit(&[0.0; 50]),
            Err(TimeSeriesError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let series: Vec<f64> = (0..80).map(|t| (t as f64 * 0.3).sin()).collect();
        let mut a = Lstm::new(tiny_config());
        let mut b = Lstm::new(tiny_config());
        a.fit(&series).unwrap();
        b.fit(&series).unwrap();
        assert_eq!(
            a.forecast(&series, 4).unwrap(),
            b.forecast(&series, 4).unwrap()
        );
    }

    #[test]
    fn multi_step_forecast_has_requested_length() {
        let series: Vec<f64> = (0..60).map(|t| (t % 5) as f64 * 0.1).collect();
        let mut m = Lstm::new(LstmConfig {
            epochs: 10,
            ..tiny_config()
        });
        m.fit(&series).unwrap();
        assert_eq!(m.forecast(&series, 7).unwrap().len(), 7);
        assert!(m.forecast(&series, 0).unwrap().is_empty());
    }

    /// The head's pre-activation on `window` and its gradient in every
    /// layer's parameters, through the training kernel the width dispatch
    /// picks for `state`.
    fn pre_and_grads(state: &LstmState, window: &[f64]) -> (f64, Vec<Vec<f64>>) {
        by_width!(state.head_w.len(), H => {
            let mut k = TrainKernel::<H>::new(state, window.len());
            let pre = k.forward(state, window);
            k.backward(state, window, 1.0);
            (pre, k.layers.iter().map(|l| l.grads.clone()).collect())
        }, _ => {
            let mut ws = Workspace::new(&state.layers, window.len());
            let pre = ws.forward(state, window);
            ws.backward(state, window, 1.0);
            (pre, ws.layers.iter().map(|l| l.grads.clone()).collect())
        })
    }

    #[test]
    fn gradient_check_fused_backward() {
        // Finite-difference check of both training kernels' BPTT through a
        // two-layer stack and the head, on each side of the width dispatch:
        // the fixed-width kernel at hidden 8, the dynamic-width one at 17.
        // Every 7th parameter of each layer is probed, so each gate block of
        // `wx`, `wh` and `b` is, in both layers.
        let window = [0.3, -0.2, 0.5, 0.1, 0.4];
        for hidden in [8, 17] {
            let mut rng = StdRng::seed_from_u64(9);
            let layers = vec![
                LstmLayer::new(1, hidden, &mut rng),
                LstmLayer::new(hidden, hidden, &mut rng),
            ];
            let head_w = (0..hidden).map(|_| normal(&mut rng, 0.0, 0.5)).collect();
            let state = LstmState {
                layers,
                head_w,
                head_b: 0.1,
                lo: 0.0,
                hi: 1.0,
                train_mse: 0.0,
                trained_len: 0,
            };
            let (_, grads) = pre_and_grads(&state, &window);
            let eps = 1e-6;
            for (k, layer_grads) in grads.iter().enumerate() {
                for idx in (0..layer_grads.len()).step_by(7) {
                    let pre_at = |delta: f64| {
                        let mut s = state.clone();
                        s.layers[k].params[idx] += delta;
                        pre_and_grads(&s, &window).0
                    };
                    let numeric = (pre_at(eps) - pre_at(-eps)) / (2.0 * eps);
                    assert!(
                        (numeric - layer_grads[idx]).abs() < 1e-5,
                        "hidden {hidden}, layer {k}, param[{idx}]: numeric {numeric} vs analytic {}",
                        layer_grads[idx]
                    );
                }
            }
        }
    }

    #[test]
    fn a_window_whose_minimum_history_overflows_is_an_invalid_config() {
        // A fit needs `window + 2` points; that sum used to overflow (a panic
        // in debug builds, a wrapped length and `FitDiverged` in release).
        let history = [0.5; 40];
        let invalid = |e: Result<(), TimeSeriesError>| {
            matches!(e, Err(TimeSeriesError::InvalidConfig { .. }))
        };
        for window in [usize::MAX, usize::MAX - 1] {
            let config = LstmConfig {
                window,
                ..tiny_config()
            };
            assert!(
                invalid(Lstm::new(config.clone()).fit(&history)),
                "fit, window {window}"
            );
            assert!(
                invalid(Lstm::new(config.clone()).refit(&history)),
                "refit, window {window}"
            );
            // An unfitted model decodes whatever its config; `fit` then
            // refuses it.
            let mut back = through_container(&Lstm::new(config)).unwrap();
            assert_eq!(back.config().window, window);
            assert!(invalid(back.fit(&history)), "decoded, window {window}");
        }
        // The longest window whose sum exists is merely too long for the
        // history.
        let longest = LstmConfig {
            window: usize::MAX - 2,
            ..tiny_config()
        };
        assert!(matches!(
            Lstm::new(longest).fit(&history),
            Err(TimeSeriesError::TooShort { got: 40, .. })
        ));
        // A fitted model checkpointed with such a window is refused at decode.
        let mut m = Lstm::new(tiny_config());
        m.fit(&history).unwrap();
        let err = through_container(&with_config(&m, |c| c.window = usize::MAX)).unwrap_err();
        assert!(err.to_string().contains("lstm config"), "{err}");
    }
}
