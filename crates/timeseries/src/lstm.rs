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
//! Training runs one compute path: fused flat-buffer kernels from
//! `utilcast_linalg::kernels` (blocked GEMV, rank-1 update, fused gate
//! activation) over one recycled workspace per fit. The gate
//! nonlinearities are the kernels' own branch-free `sigmoid`/`tanh`, not
//! libm's: within `1e-15` of libm per call, and the same bits on every
//! platform. The allocating nested-`Vec` scalar loops the fused path
//! replaced are kept as the `#[cfg(test)]` oracle in `lstm/oracle.rs`; run
//! with the same activations, the two are bit-identical by construction —
//! every accumulator sees the same IEEE op sequence — and the differential
//! suite beside the oracle enforces it. `lstm/libm_gate.rs` holds the owned
//! activations to libm's at model level.
//!
//! Forecasting needs no BPTT state, so at hidden widths up to 16 it runs an
//! inference-only forward instead (`InferKernel`): fixed-width `[f64; H]`
//! arrays that keep only each layer's running `(h, c)`, with the same op
//! sequence per accumulator as the training forward, hence the same bits.
//! Wider states forecast through the training forward, which the
//! differential suite also holds the inference kernel to.
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

/// One recycled workspace per fit, and per forecast of a state wider than
/// the inference kernel's 16: all per-step state, hoisted into flat buffers.
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
        Ok(())
    }

    /// Full forward pass into the recycled workspace. Returns
    /// the pre-activation of the head (`y = pre.max(0.0)`); the top layer's
    /// last hidden state stays readable in the workspace.
    // lint:allow(panic-path): fn-scope audit: gate and weight offsets are
    // affine in the hidden/input dims fixed at construction, with buffer
    // lengths debug_asserted at kernel entry; exemplar chain:
    // clustering::baselines::StaticClustering::fit ->
    // timeseries::lstm::Lstm::fit -> timeseries::lstm::fused_train_sample ->
    // timeseries::lstm::Lstm::forward_fused
    fn forward_fused(state: &LstmState, ws: &mut Workspace, window: &[f64]) -> f64 {
        let steps = window.len();
        for (idx, layer) in state.layers.iter().enumerate() {
            let (below, cur) = ws.layers.split_at_mut(idx);
            let lw = &mut cur[0];
            if idx == 0 {
                forward_layer_fused(layer, window, steps, &mut ws.z, &ws.zeros, lw);
            } else {
                forward_layer_fused(layer, &below[idx - 1].hs, steps, &mut ws.z, &ws.zeros, lw);
            }
        }
        let h = state.head_w.len();
        let pre: f64 = match ws.layers.last() {
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
        };
        pre
    }
}

/// Gate pre-activations or weights of one column, regrouped into the four
/// gate blocks `(i, f, g, o)` of `H` rows each.
type Gates<const H: usize> = [[f64; H]; 4];

/// One layer's weights for the inference forward: `wx` and `wh` transposed
/// into per-gate-block columns, so one column's terms reach a gate block's
/// `H` rows together while every row still gains its terms in ascending
/// column order — `gemv_acc`'s per-row order.
struct InferLayer<const H: usize> {
    /// `wx` columns, one per layer input.
    wx: Vec<Gates<H>>,
    /// `wh` columns, one per hidden unit.
    wh: [Gates<H>; H],
    b: Gates<H>,
}

impl<const H: usize> InferLayer<H> {
    /// Transposes `layer`, whose hidden width the caller has checked is `H`.
    fn new(layer: &LstmLayer) -> Self {
        debug_assert_eq!(layer.hidden, H);
        let mut b = [[0.0; H]; 4];
        for (v, &bias) in b.iter_mut().flatten().zip(layer.b()) {
            *v = bias;
        }
        InferLayer {
            wx: (0..layer.input)
                .map(|c| Self::column(layer.wx(), layer.input, c))
                .collect(),
            wh: std::array::from_fn(|c| Self::column(layer.wh(), H, c)),
            b,
        }
    }

    /// Column `c` of a row-major `4H x cols` weight block.
    fn column(w: &[f64], cols: usize, c: usize) -> Gates<H> {
        let mut col = [[0.0; H]; 4];
        for (r, v) in col.iter_mut().flatten().enumerate() {
            *v = w[r * cols + c];
        }
        col
    }

    /// Advances the running `(h, c)` by one step on input `x`; `recur` is
    /// false at a window's first step, where the state is the zero reset and
    /// the `wh` terms are skipped as in [`forward_layer_fused`].
    ///
    /// Bitwise equal to one step of the training forward: each row starts at
    /// `b` and adds its `wx` then its `wh` terms in ascending column order;
    /// one activation pass computes `sigmoid(m·z)` with `m = 2` on the
    /// candidate block and `1` elsewhere (`1·z` is exact), then `g = 2s − 1`
    /// on that block — `kernels::tanh` spelled out — and `c`, `tanh(c)` and
    /// `h` follow `lstm_gate_fuse` term for term.
    ///
    /// The sums run one gate block at a time, so a block's `H` accumulators
    /// stay in registers across all its columns. Kept out of line: inlined
    /// into the forecast driver's sixteen monomorphisations it ran at about
    /// twice the cost.
    #[inline(never)]
    fn step(&self, x: &[f64], recur: bool, [h, c]: &mut [[f64; H]; 2]) {
        let mut z = self.b;
        for (g, zg) in z.iter_mut().enumerate() {
            let mut acc = *zg;
            for (col, &xv) in self.wx.iter().zip(x) {
                for (a, &w) in acc.iter_mut().zip(&col[g]) {
                    *a += w * xv;
                }
            }
            if recur {
                for (col, &hv) in self.wh.iter().zip(h.iter()) {
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
        let [gi, gf, gg, go] = &mut z;
        for v in gg.iter_mut() {
            *v = 2.0 * *v - 1.0;
        }
        for (((cv, &i), &f), &g) in c.iter_mut().zip(&*gi).zip(&*gf).zip(&*gg) {
            *cv = f * *cv + i * g;
        }
        for ((hv, &o), &cv) in h.iter_mut().zip(&*go).zip(&*c) {
            *hv = o * tanh(cv);
        }
    }
}

/// The inference-only forward at hidden width `H`, built once per forecast:
/// the transposed layers and each layer's running `(h, c)`, nothing else.
/// [`Lstm::forecast`] monomorphises it for `H` in `1..=16`; a wider state
/// forecasts through [`Lstm::forward_fused`].
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
    /// [`Lstm::forward_fused`]'s. Steps run time-major: each layer's step
    /// `t` reads the step-`t` hidden state of the layer below, the value the
    /// training forward's layer-major order reads too.
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

/// One fused training step: forward, head + BPTT gradients, Adam updates.
/// Returns the squared error contribution of the sample.
// lint:allow(panic-path): fn-scope audit: gate and weight offsets are
// affine in the hidden/input dims fixed at construction, with buffer
// lengths debug_asserted at kernel entry; exemplar chain:
// clustering::baselines::StaticClustering::fit ->
// timeseries::lstm::Lstm::fit -> timeseries::lstm::fused_train_sample
fn fused_train_sample(
    state: &mut LstmState,
    ws: &mut Workspace,
    window: &[f64],
    target: f64,
    layer_opts: &mut [Adam],
    head_opt: &mut Adam,
    grad_clip: f64,
) -> f64 {
    let steps = window.len();
    let h = state.head_w.len();
    let pre = Lstm::forward_fused(state, ws, window);
    let y = pre.max(0.0);
    let err = y - target;
    // dLoss/dy for squared error (factor 2 folded into lr); leaky gradient
    // through the ReLU during training so the output unit cannot die.
    let mut dy = err;
    if pre <= 0.0 {
        dy *= 0.01;
    }
    // Head gradients, then the gradient into the top layer's last hidden
    // state. `validate` guarantees at least one layer, but stay panic-free.
    if let Some(top) = ws.layers.last() {
        let last_h = &top.hs[(steps - 1) * h..steps * h];
        for (g, &hv) in ws.head_grads[..h].iter_mut().zip(last_h) {
            *g = dy * hv;
        }
    }
    ws.head_grads[h] = dy;
    if let Some(top) = ws.layers.last_mut() {
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
        let (below, cur) = ws.layers.split_at_mut(idx);
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
            &mut ws.dz,
            &mut ws.dh_carry,
            &mut ws.dc_carry,
            &mut ws.dc_scratch,
        );
    }
    // Apply Adam updates in place — no delta vectors allocated.
    for ((layer, lw), opt) in state
        .layers
        .iter_mut()
        .zip(&ws.layers)
        .zip(layer_opts.iter_mut())
    {
        let params = &mut layer.params;
        opt.apply(&lw.grads, grad_clip, |i, d| params[i] += d);
    }
    let head_w = &mut state.head_w;
    let head_b = &mut state.head_b;
    head_opt.apply(&ws.head_grads, grad_clip, |i, d| {
        if i < h {
            head_w[i] += d;
        } else {
            *head_b += d;
        }
    });
    err * err
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

    /// [`Lstm::fit_with`] through the fused training step.
    fn fit_fused(
        &mut self,
        history: &[f64],
        start: Option<LstmState>,
    ) -> Result<(), TimeSeriesError> {
        let grad_clip = self.config.grad_clip;
        let mut ws = None;
        self.fit_with(
            history,
            start,
            |state, window, target, layer_opts, head_opt| {
                let ws = ws.get_or_insert_with(|| Workspace::new(&state.layers, window.len()));
                fused_train_sample(state, ws, window, target, layer_opts, head_opt, grad_clip)
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
    /// training forward beyond.
    fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>, TimeSeriesError> {
        match self.state.as_ref().map_or(0, |s| s.head_w.len()) {
            1 => self.forecast_at::<1>(history, horizon),
            2 => self.forecast_at::<2>(history, horizon),
            3 => self.forecast_at::<3>(history, horizon),
            4 => self.forecast_at::<4>(history, horizon),
            5 => self.forecast_at::<5>(history, horizon),
            6 => self.forecast_at::<6>(history, horizon),
            7 => self.forecast_at::<7>(history, horizon),
            8 => self.forecast_at::<8>(history, horizon),
            9 => self.forecast_at::<9>(history, horizon),
            10 => self.forecast_at::<10>(history, horizon),
            11 => self.forecast_at::<11>(history, horizon),
            12 => self.forecast_at::<12>(history, horizon),
            13 => self.forecast_at::<13>(history, horizon),
            14 => self.forecast_at::<14>(history, horizon),
            15 => self.forecast_at::<15>(history, horizon),
            16 => self.forecast_at::<16>(history, horizon),
            _ => {
                let mut ws = None;
                self.forecast_with(history, horizon, |state, window| {
                    let ws = ws.get_or_insert_with(|| Workspace::new(&state.layers, window.len()));
                    Lstm::forward_fused(state, ws, window).max(0.0)
                })
            }
        }
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

    #[test]
    fn gradient_check_fused_backward() {
        // Finite-difference check of the fused flat-buffer backward pass:
        // run forward + backward through the workspace and compare analytic
        // gradients to numeric ones from the fused forward.
        let mut rng = StdRng::seed_from_u64(9);
        let layer = LstmLayer::new(2, 4, &mut rng);
        let xs = vec![0.3, -0.2, -0.1, 0.4, 0.5, 0.05];
        let steps = 3;
        let fused_loss = |l: &LstmLayer| -> f64 {
            let mut ws = Workspace::new(std::slice::from_ref(l), steps);
            let mut z = vec![0.0; 4 * l.hidden];
            let zeros = vec![0.0; l.hidden];
            forward_layer_fused(l, &xs, steps, &mut z, &zeros, &mut ws.layers[0]);
            ws.layers[0].hs[(steps - 1) * l.hidden..].iter().sum()
        };
        let mut ws = Workspace::new(std::slice::from_ref(&layer), steps);
        {
            let mut z = vec![0.0; 4 * layer.hidden];
            let zeros = vec![0.0; layer.hidden];
            forward_layer_fused(&layer, &xs, steps, &mut z, &zeros, &mut ws.layers[0]);
        }
        // dLoss/dh = 1 on the last step only.
        let mut dh = vec![0.0; steps * layer.hidden];
        for v in dh[(steps - 1) * layer.hidden..].iter_mut() {
            *v = 1.0;
        }
        let mut grads = vec![0.0; layer.num_params()];
        let lw = ws.layers[0].clone();
        backward_layer_fused(
            &layer,
            &xs,
            steps,
            &lw.gates,
            &lw.cs,
            &lw.tanh_cs,
            &lw.hs,
            &dh,
            &mut grads,
            None,
            &mut ws.dz,
            &mut ws.dh_carry,
            &mut ws.dc_carry,
            &mut ws.dc_scratch,
        );
        let eps = 1e-6;
        // Probe entries across all three parameter blocks.
        let wh_probe = layer.wh_offset() + 5;
        let b_probe = layer.b_offset() + 3;
        for &idx in &[0usize, 5, wh_probe, b_probe] {
            let mut lp = layer.clone();
            lp.params[idx] += eps;
            let mut lm = layer.clone();
            lm.params[idx] -= eps;
            let numeric = (fused_loss(&lp) - fused_loss(&lm)) / (2.0 * eps);
            assert!(
                (numeric - grads[idx]).abs() < 1e-5,
                "param[{idx}]: numeric {numeric} vs analytic {}",
                grads[idx]
            );
        }
    }
}
