//! The allocating nested-`Vec` scalar LSTM loops `lstm` shipped before the
//! fused flat-buffer path, kept as the oracle that `differential` compares
//! the production path against bit for bit. Test support only: nothing here
//! is reachable from a non-test build, and no option selects it.
//!
//! The gate nonlinearities are a parameter. [`Activations::OWNED`] is the
//! pair the production kernel calls (`utilcast_linalg::kernels::{sigmoid,
//! tanh}`), so the differential suite compares loop structure, not
//! activation functions. [`Activations::LIBM`] is libm's pair, the reference
//! of the model-level quality gate in `libm_gate`.

use utilcast_linalg::kernels;

use super::{Adam, Lstm, LstmLayer, LstmState};
use crate::TimeSeriesError;

/// The gate nonlinearities one oracle run uses.
#[derive(Debug, Clone, Copy)]
pub(super) struct Activations {
    sigmoid: fn(f64) -> f64,
    tanh: fn(f64) -> f64,
}

impl Activations {
    /// The owned pair of the production kernel.
    pub(super) const OWNED: Activations = Activations {
        sigmoid: kernels::sigmoid,
        tanh: kernels::tanh,
    };
    /// libm's `exp`/`tanh`, what the LSTM ran on before it owned them.
    pub(super) const LIBM: Activations = Activations {
        sigmoid: |x| 1.0 / (1.0 + (-x).exp()),
        tanh: f64::tanh,
    };
}

/// Cached activations of one layer over one sequence, for BPTT.
#[derive(Debug, Clone, Default)]
pub(super) struct LayerCache {
    /// Inputs x_t per step.
    pub(super) xs: Vec<Vec<f64>>,
    /// Gate activations per step: i, f, g, o (each `hidden` long).
    pub(super) gates: Vec<[Vec<f64>; 4]>,
    /// Cell states per step.
    pub(super) cs: Vec<Vec<f64>>,
    /// Hidden states per step.
    pub(super) hs: Vec<Vec<f64>>,
}

impl LstmLayer {
    /// Runs the layer over a sequence, returning the hidden states and a
    /// cache for BPTT.
    pub(super) fn forward(&self, sequence: &[Vec<f64>], act: Activations) -> LayerCache {
        let Activations { sigmoid, tanh } = act;
        let h = self.hidden;
        let mut cache = LayerCache::default();
        let mut h_prev = vec![0.0; h];
        let mut c_prev = vec![0.0; h];
        for x in sequence {
            debug_assert_eq!(x.len(), self.input);
            // z = Wx x + Wh h_prev + b, packed (i, f, g, o).
            let mut z = self.b().to_vec();
            for (row, zv) in z.iter_mut().enumerate() {
                let wx_row = &self.wx()[row * self.input..(row + 1) * self.input];
                for (w, xv) in wx_row.iter().zip(x) {
                    *zv += w * xv;
                }
                let wh_row = &self.wh()[row * h..(row + 1) * h];
                for (w, hv) in wh_row.iter().zip(&h_prev) {
                    *zv += w * hv;
                }
            }
            let mut gi = vec![0.0; h];
            let mut gf = vec![0.0; h];
            let mut gg = vec![0.0; h];
            let mut go = vec![0.0; h];
            for j in 0..h {
                gi[j] = sigmoid(z[j]);
                gf[j] = sigmoid(z[h + j]);
                gg[j] = tanh(z[2 * h + j]);
                go[j] = sigmoid(z[3 * h + j]);
            }
            let mut c = vec![0.0; h];
            let mut hidden_state = vec![0.0; h];
            for j in 0..h {
                c[j] = gf[j] * c_prev[j] + gi[j] * gg[j];
                hidden_state[j] = go[j] * tanh(c[j]);
            }
            cache.xs.push(x.clone());
            cache.gates.push([gi, gf, gg, go]);
            cache.cs.push(c.clone());
            cache.hs.push(hidden_state.clone());
            c_prev = c;
            h_prev = hidden_state;
        }
        cache
    }

    /// BPTT through the cached sequence. `dh_per_step[t]`
    /// is the external gradient flowing into `h_t` (from the head or the
    /// layer above). Returns `(grads, dx_per_step)` where `grads` matches the
    /// parameter layout `[wx | wh | b]` flattened.
    pub(super) fn backward(
        &self,
        cache: &LayerCache,
        dh_per_step: &[Vec<f64>],
        act: Activations,
    ) -> (Vec<f64>, Vec<Vec<f64>>) {
        let h = self.hidden;
        let steps = cache.xs.len();
        let mut d_wx = vec![0.0; 4 * h * self.input];
        let mut d_wh = vec![0.0; 4 * h * h];
        let mut d_b = vec![0.0; 4 * h];
        let mut dxs = vec![vec![0.0; self.input]; steps];
        let mut dh_next = vec![0.0; h];
        let mut dc_next = vec![0.0; h];
        for t in (0..steps).rev() {
            let [gi, gf, gg, go] = &cache.gates[t];
            let c = &cache.cs[t];
            let c_prev: &[f64] = if t == 0 { &[] } else { &cache.cs[t - 1] };
            let h_prev: &[f64] = if t == 0 { &[] } else { &cache.hs[t - 1] };
            let mut dh: Vec<f64> = dh_per_step[t].clone();
            for (a, b) in dh.iter_mut().zip(&dh_next) {
                *a += b;
            }
            let mut dz = vec![0.0; 4 * h];
            let mut dc_prev = vec![0.0; h];
            for j in 0..h {
                let tanh_c = (act.tanh)(c[j]);
                let dc = dc_next[j] + dh[j] * go[j] * (1.0 - tanh_c * tanh_c);
                let d_o = dh[j] * tanh_c;
                let cp = if t == 0 { 0.0 } else { c_prev[j] };
                let d_i = dc * gg[j];
                let d_f = dc * cp;
                let d_g = dc * gi[j];
                dz[j] = d_i * gi[j] * (1.0 - gi[j]);
                dz[h + j] = d_f * gf[j] * (1.0 - gf[j]);
                dz[2 * h + j] = d_g * (1.0 - gg[j] * gg[j]);
                dz[3 * h + j] = d_o * go[j] * (1.0 - go[j]);
                dc_prev[j] = dc * gf[j];
            }
            // Accumulate parameter gradients and propagate to x and h_prev.
            let mut dh_prev = vec![0.0; h];
            for (row, &dzv) in dz.iter().enumerate() {
                // Exact zero skip of a no-op gradient row; tiny gradients
                // must still accumulate.
                if dzv == 0.0 {
                    continue;
                }
                let x = &cache.xs[t];
                for (k, xv) in x.iter().enumerate() {
                    d_wx[row * self.input + k] += dzv * xv;
                }
                if t > 0 {
                    for (k, hv) in h_prev.iter().enumerate() {
                        d_wh[row * h + k] += dzv * hv;
                    }
                }
                d_b[row] += dzv;
                let wx_row = &self.wx()[row * self.input..(row + 1) * self.input];
                for (k, w) in wx_row.iter().enumerate() {
                    dxs[t][k] += dzv * w;
                }
                let wh_row = &self.wh()[row * h..(row + 1) * h];
                for (k, w) in wh_row.iter().enumerate() {
                    dh_prev[k] += dzv * w;
                }
            }
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        let mut grads = d_wx;
        grads.extend(d_wh);
        grads.extend(d_b);
        (grads, dxs)
    }
}

impl Adam {
    /// Applies one Adam update; returns the per-parameter deltas.
    fn step(&mut self, grads: &[f64], clip: f64) -> Vec<f64> {
        let mut deltas = vec![0.0; grads.len()];
        self.apply(grads, clip, |i, d| deltas[i] = d);
        deltas
    }
}

impl Lstm {
    /// Full forward pass: window of normalized values -> scalar
    /// prediction. Returns `(prediction, caches, head_input)`.
    fn forward_exact(
        state: &LstmState,
        window: &[f64],
        act: Activations,
    ) -> (f64, Vec<LayerCache>, Vec<f64>) {
        let mut seq: Vec<Vec<f64>> = window.iter().map(|&v| vec![v]).collect();
        let mut caches = Vec::with_capacity(state.layers.len());
        for layer in &state.layers {
            let cache = layer.forward(&seq, act);
            seq = cache.hs.clone();
            caches.push(cache);
        }
        // `validate` rejects window == 0 before any forward pass; an empty
        // sequence maps to the zero hidden state rather than a panic.
        let last_h = match seq.last() {
            Some(h) => h.clone(),
            None => vec![0.0; state.head_w.len()],
        };
        let pre: f64 = state
            .head_w
            .iter()
            .zip(&last_h)
            .map(|(w, h)| w * h)
            .sum::<f64>()
            + state.head_b;
        // ReLU head (utilizations are non-negative on the normalized scale).
        let y = pre.max(0.0);
        (y, caches, last_h)
    }

    /// [`crate::Forecaster::fit`] through the scalar training step.
    pub(super) fn fit_exact(
        &mut self,
        history: &[f64],
        act: Activations,
    ) -> Result<(), TimeSeriesError> {
        self.train_exact(history, None, act)
    }

    /// [`crate::Forecaster::refit`] through the scalar training step.
    pub(super) fn refit_exact(
        &mut self,
        history: &[f64],
        act: Activations,
    ) -> Result<(), TimeSeriesError> {
        let outgoing = self.state.clone();
        self.train_exact(history, outgoing, act)
    }

    fn train_exact(
        &mut self,
        history: &[f64],
        start: Option<LstmState>,
        act: Activations,
    ) -> Result<(), TimeSeriesError> {
        let grad_clip = self.config.grad_clip;
        self.fit_with(
            history,
            start,
            |state, window, target, layer_opts, head_opt| {
                exact_train_sample(state, window, target, layer_opts, head_opt, grad_clip, act)
            },
        )
    }

    /// [`crate::Forecaster::forecast`] through the scalar forward pass and
    /// the closed-loop driver the production path replaced: the window is a
    /// `Vec` that drops its oldest value and takes the clamped prediction
    /// each step.
    pub(super) fn forecast_exact(
        &self,
        history: &[f64],
        horizon: usize,
        act: Activations,
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
        let mut window: Vec<f64> = history[history.len() - w..]
            .iter()
            .map(|v| ((v - state.lo) / span).clamp(-0.5, 1.5))
            .collect();
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let y = Lstm::forward_exact(state, &window, act).0;
            out.push(state.lo + y * span);
            window.remove(0);
            window.push(y.clamp(0.0, 1.25));
        }
        Ok(out)
    }
}

/// One training step: forward, head + BPTT gradients, Adam updates.
/// Returns the squared error of the sample.
fn exact_train_sample(
    state: &mut LstmState,
    window: &[f64],
    target: f64,
    layer_opts: &mut [Adam],
    head_opt: &mut Adam,
    grad_clip: f64,
    act: Activations,
) -> f64 {
    let hidden = state.head_w.len();
    let (y, caches, last_h) = Lstm::forward_exact(state, window, act);
    let err = y - target;
    // dLoss/dy for squared error (factor 2 folded into lr).
    let mut dy = err;
    // ReLU gate.
    let pre = state
        .head_w
        .iter()
        .zip(&last_h)
        .map(|(w, h)| w * h)
        .sum::<f64>()
        + state.head_b;
    if pre <= 0.0 {
        // Leaky gradient through the ReLU during training so the
        // single output unit cannot die permanently.
        dy *= 0.01;
    }
    // Head gradients.
    let mut head_grads: Vec<f64> = last_h.iter().map(|h| dy * h).collect();
    head_grads.push(dy);
    // Gradient into the top layer's last hidden state.
    let steps = window.len();
    let mut dh_top = vec![vec![0.0; hidden]; steps];
    for (j, w) in state.head_w.iter().enumerate() {
        dh_top[steps - 1][j] = dy * w;
    }
    // Backward through the stack.
    let mut dh_per_step = dh_top;
    let mut layer_grads: Vec<Vec<f64>> = Vec::with_capacity(state.layers.len());
    for (layer, cache) in state.layers.iter().zip(&caches).rev() {
        let (grads, dxs) = layer.backward(cache, &dh_per_step, act);
        layer_grads.push(grads);
        dh_per_step = dxs;
    }
    layer_grads.reverse();
    // Apply Adam updates.
    for ((layer, grads), opt) in state
        .layers
        .iter_mut()
        .zip(&layer_grads)
        .zip(layer_opts.iter_mut())
    {
        let deltas = opt.step(grads, grad_clip);
        for (p, d) in layer.params.iter_mut().zip(&deltas) {
            *p += d;
        }
    }
    let head_deltas = head_opt.step(&head_grads, grad_clip);
    for (w, d) in state.head_w.iter_mut().zip(&head_deltas) {
        *w += d;
    }
    state.head_b += head_deltas[hidden];
    err * err
}
