//! The box (interval vector) domain — interval bound propagation.

use crate::affine::AffineView;
use crate::interval::{round_down, round_lanes, round_up, Interval};
use napmon_nn::{Activation, Layer, MaxPool2d};
use serde::{Deserialize, Serialize};
use std::array::from_fn;

/// Per-dimension lower/upper bounds: the paper's `⟨(l_1,u_1),…,(l_d,u_d)⟩`.
///
/// All propagation steps round outward (see [`crate::interval`]), so a
/// propagated box is a sound enclosure of the exact real-arithmetic image.
///
/// ```
/// use napmon_absint::BoxBounds;
/// let b = BoxBounds::from_center_radius(&[0.0, 1.0], 0.5);
/// assert!(b.contains(&[0.4, 1.2]));
/// assert!(!b.contains(&[0.6, 1.0]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoxBounds {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BoxBounds {
    /// Creates a box from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, any `lo[i] > hi[i]`, or any bound is NaN.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "box: bound length mismatch");
        for i in 0..lo.len() {
            assert!(!lo[i].is_nan() && !hi[i].is_nan(), "box: NaN bound at {i}");
            assert!(
                lo[i] <= hi[i],
                "box: empty dimension {i}: [{}, {}]",
                lo[i],
                hi[i]
            );
        }
        Self { lo, hi }
    }

    /// The degenerate box containing exactly `point`.
    pub fn from_point(point: &[f64]) -> Self {
        Self {
            lo: point.to_vec(),
            hi: point.to_vec(),
        }
    }

    /// The L∞ ball `[c - r, c + r]` around `center` (outward-rounded).
    ///
    /// This is the paper's `Δ`-perturbation set at a boundary.
    ///
    /// # Panics
    ///
    /// Panics if `radius < 0`.
    pub fn from_center_radius(center: &[f64], radius: f64) -> Self {
        assert!(radius >= 0.0, "box: negative radius {radius}");
        let lo = center.iter().map(|&c| round_down(c - radius)).collect();
        let hi = center.iter().map(|&c| round_up(c + radius)).collect();
        Self { lo, hi }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// The `i`-th dimension as an [`Interval`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    pub fn get(&self, i: usize) -> Interval {
        Interval::new(self.lo[i], self.hi[i])
    }

    /// Whether `point` lies inside the box.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn contains(&self, point: &[f64]) -> bool {
        assert_eq!(point.len(), self.dim(), "contains: dimension mismatch");
        point
            .iter()
            .enumerate()
            .all(|(i, &x)| self.lo[i] <= x && x <= self.hi[i])
    }

    /// Whether `other` is entirely inside `self`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn encloses(&self, other: &BoxBounds) -> bool {
        assert_eq!(other.dim(), self.dim(), "encloses: dimension mismatch");
        (0..self.dim()).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// Per-dimension intersection (meet).
    ///
    /// Intended for combining two *sound* enclosures of the same set, where
    /// the intersection is guaranteed non-empty.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ or the intersection is empty in some
    /// dimension (which would mean one input was not a sound enclosure).
    pub fn meet(&self, other: &BoxBounds) -> BoxBounds {
        assert_eq!(other.dim(), self.dim(), "meet: dimension mismatch");
        let lo: Vec<f64> = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(a, b)| a.max(*b))
            .collect();
        let hi: Vec<f64> = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(a, b)| a.min(*b))
            .collect();
        BoxBounds::new(lo, hi)
    }

    /// Smallest box containing both.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn hull(&self, other: &BoxBounds) -> BoxBounds {
        assert_eq!(other.dim(), self.dim(), "hull: dimension mismatch");
        BoxBounds {
            lo: self
                .lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| a.min(*b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// Per-dimension widths.
    pub fn widths(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| round_up(h - l))
            .collect()
    }

    /// Mean width across dimensions (a tightness metric for domain
    /// comparisons); `0.0` for zero-dimensional boxes.
    pub fn mean_width(&self) -> f64 {
        if self.lo.is_empty() {
            return 0.0;
        }
        self.widths().iter().sum::<f64>() / self.lo.len() as f64
    }

    /// Propagates through one network layer: the one-box case of the
    /// batched kernel that [`crate::propagate::Propagator::bounds_batch`]
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if the box dimension does not match the layer input.
    pub fn step(&self, layer: &Layer) -> BoxBounds {
        let view = [AffineView::from_layer(layer)];
        let mut out = propagate(
            (std::slice::from_ref(layer), &view),
            std::slice::from_ref(self),
        );
        out.pop().expect("one box in, one box out")
    }
}

/// The layers a box chain runs through, and the affine view of each layer
/// that has one (`None` for activations and max pooling).
pub(crate) type Steps<'a> = (&'a [Layer], &'a [Option<AffineView>]);

/// Boxes per chunk of the batched kernel, one per vector lane.
const LANES: usize = 8;

/// Propagates every box of `inputs` through `steps`. Full chunks of
/// [`LANES`] boxes run on the widest copy of the kernel the CPU has, the
/// rest one at a time; a box's bounds are the same bits either way.
pub(crate) fn propagate(steps: Steps<'_>, inputs: &[BoxBounds]) -> Vec<BoxBounds> {
    assert_eq!(steps.0.len(), steps.1.len(), "one view slot per layer");
    let full = inputs.len() - inputs.len() % LANES;
    let mut out = Vec::with_capacity(inputs.len());
    chunks(steps, &inputs[..full], &mut out);
    for input in &inputs[full..] {
        chain::<1>(steps, std::slice::from_ref(input), &mut out);
    }
    out
}

/// Runs full chunks on the AVX-512F copy of the kernel if the CPU has it,
/// else on the AVX2 copy if it has that, else on the portable copy.
fn chunks(steps: Steps<'_>, inputs: &[BoxBounds], out: &mut Vec<BoxBounds>) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `chunks_avx512` enables no target feature but
            // AVX-512F, and the check just above found it on this CPU.
            unsafe { chunks_avx512(steps, inputs, out) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `chunks_avx2` enables no target feature but AVX2,
            // and the check just above found it on this CPU.
            unsafe { chunks_avx2(steps, inputs, out) };
            return;
        }
    }
    each_chunk(steps, inputs, out);
}

/// The kernel's AVX-512F copy: one 512-bit register per lane array.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn chunks_avx512(steps: Steps<'_>, inputs: &[BoxBounds], out: &mut Vec<BoxBounds>) {
    each_chunk(steps, inputs, out);
}

/// The kernel's AVX2 copy: two 256-bit registers per lane array.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn chunks_avx2(steps: Steps<'_>, inputs: &[BoxBounds], out: &mut Vec<BoxBounds>) {
    each_chunk(steps, inputs, out);
}

/// The loop every copy compiles: the boxes [`LANES`] at a time.
#[inline(always)]
fn each_chunk(steps: Steps<'_>, inputs: &[BoxBounds], out: &mut Vec<BoxBounds>) {
    for chunk in inputs.chunks_exact(LANES) {
        chain::<LANES>(steps, chunk, out);
    }
}

/// Propagates `L` boxes of one dimension (`inputs.len() == L`) through
/// every step and appends the results to `out`, in order.
#[inline(always)]
fn chain<const L: usize>(steps: Steps<'_>, inputs: &[BoxBounds], out: &mut Vec<BoxBounds>) {
    assert_eq!(inputs.len(), L, "one box per lane");
    let mut cur = Lanes::<L> {
        lo: (0..inputs[0].dim())
            .map(|i| from_fn(|l| inputs[l].lo[i]))
            .collect(),
        hi: (0..inputs[0].dim())
            .map(|i| from_fn(|l| inputs[l].hi[i]))
            .collect(),
    };
    for (layer, view) in steps.0.iter().zip(steps.1) {
        cur = match (view, layer) {
            (Some(view), _) => cur.affine(view),
            (None, Layer::Activation(act)) => cur.activation(*act),
            (None, Layer::MaxPool2d(p)) => cur.maxpool(p),
            _ => unreachable!("non-affine layers are pooling or activation"),
        };
    }
    out.extend((0..L).map(|l| BoxBounds {
        lo: cur.lo.iter().map(|x| x[l]).collect(),
        hi: cur.hi.iter().map(|x| x[l]).collect(),
    }));
}

/// `L` boxes side by side, as a structure of arrays: coordinate `i` of box
/// `l` is `[lo[i][l], hi[i][l]]`. Every step runs on each lane exactly the
/// operations it runs on one box, so lane `l` holds the same bits as box
/// `l` propagated alone.
struct Lanes<const L: usize> {
    lo: Vec<[f64; L]>,
    hi: Vec<[f64; L]>,
}

impl<const L: usize> Lanes<L> {
    /// An affine map with directed rounding. Each accumulator starts at the
    /// bias and adds the row's terms in order; a zero weight in the view's
    /// row is added like any other (`round_down(0.0)` is not neutral).
    #[inline(always)]
    fn affine(&self, view: &AffineView) -> Self {
        assert_eq!(self.lo.len(), view.in_dim(), "affine: box dimension");
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for r in 0..view.out_dim() {
            let (mut acc_lo, mut acc_hi) = ([view.bias()[r]; L], [view.bias()[r]; L]);
            for &(i, w) in view.row(r) {
                let (xl, xh) = (&self.lo[i], &self.hi[i]);
                let a: [f64; L] = from_fn(|l| w * xl[l]);
                let c: [f64; L] = from_fn(|l| w * xh[l]);
                let cl: [f64; L] = from_fn(|l| if a[l] <= c[l] { a[l] } else { c[l] });
                let ch: [f64; L] = from_fn(|l| if a[l] <= c[l] { c[l] } else { a[l] });
                let (cl, ch) = (round_lanes(cl, -1), round_lanes(ch, 1));
                acc_lo = round_lanes(from_fn(|l| acc_lo[l] + cl[l]), -1);
                acc_hi = round_lanes(from_fn(|l| acc_hi[l] + ch[l]), 1);
            }
            lo.push(acc_lo);
            hi.push(acc_hi);
        }
        Self { lo, hi }
    }

    /// An elementwise monotone activation (exact up to outward rounding).
    #[inline(always)]
    fn activation(&self, act: Activation) -> Self {
        let map = |xs: &[[f64; L]], dir| {
            let apply = |x: &[f64; L]| round_lanes(from_fn(|l| act.apply(x[l])), dir);
            xs.iter().map(apply).collect()
        };
        Self {
            lo: map(&self.lo, -1),
            hi: map(&self.hi, 1),
        }
    }

    /// Max pooling (exact: `max` is monotone in every window element and
    /// incurs no rounding).
    #[inline(always)]
    fn maxpool(&self, p: &MaxPool2d) -> Self {
        assert_eq!(self.lo.len(), p.in_dim(), "maxpool: box dimension");
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for c in 0..p.channels() {
            for oy in 0..p.out_h() {
                for ox in 0..p.out_w() {
                    let (mut wl, mut wh) = ([f64::NEG_INFINITY; L], [f64::NEG_INFINITY; L]);
                    for i in p.window_indices(c, oy, ox) {
                        for l in 0..L {
                            wl[l] = wl[l].max(self.lo[i][l]);
                            wh[l] = wh[l].max(self.hi[i][l]);
                        }
                    }
                    lo.push(wl);
                    hi.push(wh);
                }
            }
        }
        Self { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_nn::{AvgPool2d, BatchNorm1d, Conv2d, Dense, Network};
    use napmon_tensor::{init::Init, Matrix, Prng};

    /// The per-box loop the batched kernel replaced, kept as the reference
    /// every compiled copy is pinned to: the affine, activation and
    /// max-pooling steps as they ran one box at a time, rounding with
    /// `next_down` / `next_up`.
    fn reference(b: &BoxBounds, layer: &Layer) -> BoxBounds {
        let down = |x: f64| if x.is_finite() { x.next_down() } else { x };
        let up = |x: f64| if x.is_finite() { x.next_up() } else { x };
        if let Some(view) = AffineView::from_layer(layer) {
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            for r in 0..view.out_dim() {
                let (mut acc_lo, mut acc_hi) = (view.bias()[r], view.bias()[r]);
                for &(i, w) in view.row(r) {
                    let (a, c) = (w * b.lo[i], w * b.hi[i]);
                    let (cl, ch) = if a <= c { (a, c) } else { (c, a) };
                    acc_lo = down(acc_lo + down(cl));
                    acc_hi = up(acc_hi + up(ch));
                }
                lo.push(acc_lo);
                hi.push(acc_hi);
            }
            return BoxBounds { lo, hi };
        }
        match layer {
            Layer::Activation(act) => BoxBounds {
                lo: b.lo.iter().map(|&l| down(act.apply(l))).collect(),
                hi: b.hi.iter().map(|&h| up(act.apply(h))).collect(),
            },
            Layer::MaxPool2d(p) => {
                let (mut lo, mut hi) = (Vec::new(), Vec::new());
                for c in 0..p.channels() {
                    for oy in 0..p.out_h() {
                        for ox in 0..p.out_w() {
                            let (mut wl, mut wh) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                            for i in p.window_indices(c, oy, ox) {
                                wl = wl.max(b.lo[i]);
                                wh = wh.max(b.hi[i]);
                            }
                            lo.push(wl);
                            hi.push(wh);
                        }
                    }
                }
                BoxBounds { lo, hi }
            }
            _ => unreachable!("non-affine layers are pooling or activation"),
        }
    }

    type Copy = fn(Steps<'_>, &[BoxBounds], &mut Vec<BoxBounds>);

    /// Every compiled copy of the kernel this CPU can run, by name.
    fn copies() -> Vec<(&'static str, Copy)> {
        let mut copies: Vec<(&'static str, Copy)> = vec![("portable", each_chunk)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                copies.push(("avx2", |steps, inputs, out| {
                    // SAFETY: listed only when the CPU has AVX2, the one
                    // target feature `chunks_avx2` enables.
                    unsafe { chunks_avx2(steps, inputs, out) }
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                copies.push(("avx512f", |steps, inputs, out| {
                    // SAFETY: listed only when the CPU has AVX-512F, the
                    // one target feature `chunks_avx512` enables.
                    unsafe { chunks_avx512(steps, inputs, out) }
                }));
            }
        }
        copies
    }

    /// `inputs` through `layers` as [`propagate`] splits them, with the
    /// full chunks on `copy`.
    fn run(copy: Copy, layers: &[Layer], inputs: &[BoxBounds]) -> Vec<BoxBounds> {
        let views: Vec<_> = layers.iter().map(AffineView::from_layer).collect();
        let full = inputs.len() - inputs.len() % LANES;
        let mut out = Vec::new();
        copy((layers, &views), &inputs[..full], &mut out);
        for input in &inputs[full..] {
            chain::<1>((layers, &views), std::slice::from_ref(input), &mut out);
        }
        out
    }

    /// Bit equality, but any NaN equals any NaN: Rust leaves a NaN's sign
    /// and payload unspecified.
    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// conv (padded, some zero weights) → leaky ReLU → max pool → average
    /// pool → batch norm (one zero scale) → tanh → dense (zero weights) →
    /// ReLU → dense → sigmoid → identity, on a 1×6×6 input.
    fn mixed_layers() -> Vec<Layer> {
        let mut rng = Prng::seed(31);
        let mut conv = Conv2d::seeded(&mut rng, 1, 6, 6, 2, 3, 1, 1, Init::HeNormal).unwrap();
        conv.update_params(|w, _| w.iter_mut().step_by(4).for_each(|w| *w = 0.0));
        let row: &[f64] = &[0.5, -1.0, 0.0, 2.0, 0.0, 0.25, -0.75, 1.5];
        let mut dense = Matrix::from_rows(&[row; 5]);
        dense[(1, 3)] = 0.0;
        let layers = vec![
            Layer::Conv2d(conv),
            Layer::Activation(Activation::LeakyRelu { alpha: 0.1 }),
            Layer::MaxPool2d(MaxPool2d::new(2, 6, 6, 2, 2).unwrap()),
            Layer::AvgPool2d(AvgPool2d::new(2, 3, 3, 2, 1).unwrap()),
            Layer::BatchNorm(
                BatchNorm1d::new(
                    vec![1.5, 0.0, -2.0, 0.5, 1.0, -1.0, 3.0, 0.25],
                    vec![0.1, -0.2, 0.0, 0.3, -0.0, 1.0, -1.0, 0.5],
                )
                .unwrap(),
            ),
            Layer::Activation(Activation::Tanh),
            Layer::Dense(Dense::new(dense, vec![0.0, 0.1, -0.1, 0.0, 2.0]).unwrap()),
            Layer::Activation(Activation::Relu),
            Layer::Dense(Dense::seeded(&mut rng, 5, 3, Init::HeNormal)),
            Layer::Activation(Activation::Sigmoid),
            Layer::Activation(Activation::Identity),
        ];
        Network::from_layers(36, layers.clone()).expect("layers chain");
        layers
    }

    /// Boxes around random centres, every third one the point itself
    /// (Δ = 0), some coordinates at ±0, subnormals, `MIN_POSITIVE`, or near
    /// `f64::MAX`, where a product or a rounding reaches ±∞.
    fn edge_boxes(n: usize) -> Vec<BoxBounds> {
        let special = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::MAX / 3.0,
        ];
        let mut rng = Prng::seed(32);
        (0..n)
            .map(|k| {
                let mut center = rng.uniform_vec(36, -1.0, 1.0);
                for j in 0..k % 4 {
                    center[(7 * k + 5 * j) % 36] = special[(k + j) % special.len()];
                }
                match k % 3 {
                    0 => BoxBounds::from_point(&center),
                    r => BoxBounds::from_center_radius(&center, [1e-3, 0.3][r - 1]),
                }
            })
            .collect()
    }

    #[test]
    fn every_copy_matches_the_per_box_loop_at_every_batch_size() {
        let layers = mixed_layers();
        let inputs = edge_boxes(17);
        for (name, copy) in copies() {
            for depth in 1..=layers.len() {
                let layers = &layers[..depth];
                for n in 0..=17 {
                    let got = run(copy, layers, &inputs[..n]);
                    assert_eq!(got.len(), n, "{name}");
                    for (k, (got, input)) in got.iter().zip(&inputs).enumerate() {
                        let want = layers.iter().fold(input.clone(), |b, l| reference(&b, l));
                        assert!(
                            same_bits(&got.lo, &want.lo) && same_bits(&got.hi, &want.hi),
                            "{name}: box {k} of {n}, {depth} layers: {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_copy_rounds_lanes_like_next_down_and_next_up() {
        let mut values = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = Prng::seed(33);
        values.extend((0..4 * 17 - values.len()).map(|_| f64::from_bits(rng.next_u64())));
        let boxes: Vec<BoxBounds> = values
            .chunks(4)
            .map(|v| BoxBounds {
                lo: v.to_vec(),
                hi: v.to_vec(),
            })
            .collect();
        let identity = [Layer::Activation(Activation::Identity)];
        for (name, copy) in copies() {
            for (b, got) in boxes.iter().zip(run(copy, &identity, &boxes)) {
                for (i, &x) in b.lo.iter().enumerate() {
                    let (down, up) = match x.is_finite() {
                        true => (x.next_down(), x.next_up()),
                        false => (x, x),
                    };
                    assert_eq!(got.lo[i].to_bits(), down.to_bits(), "{name}: down {x:e}");
                    assert_eq!(got.hi[i].to_bits(), up.to_bits(), "{name}: up {x:e}");
                }
            }
        }
    }

    #[test]
    fn construction_and_accessors() {
        let b = BoxBounds::new(vec![0.0, -1.0], vec![1.0, 1.0]);
        assert_eq!(b.dim(), 2);
        assert_eq!(b.get(1).lo(), -1.0);
        assert!(b.contains(&[0.5, 0.0]));
        assert!(!b.contains(&[1.5, 0.0]));
    }

    #[test]
    #[should_panic(expected = "empty dimension")]
    fn inverted_bounds_panic() {
        BoxBounds::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn center_radius_box_encloses_ball() {
        let b = BoxBounds::from_center_radius(&[0.1, 0.2], 0.05);
        assert!(b.contains(&[0.15, 0.15]));
        assert!(b.contains(&[0.05, 0.25]));
    }

    #[test]
    fn hull_encloses_both() {
        let a = BoxBounds::new(vec![0.0], vec![1.0]);
        let b = BoxBounds::new(vec![2.0], vec![3.0]);
        let h = a.hull(&b);
        assert!(h.encloses(&a) && h.encloses(&b));
        assert!((h.widths()[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn affine_step_encloses_concrete_images() {
        let d = Dense::new(
            Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]),
            vec![0.1, -0.2],
        )
        .unwrap();
        let layer = Layer::Dense(d.clone());
        let b = BoxBounds::from_center_radius(&[0.3, -0.6], 0.1);
        let out = b.step(&layer);
        let mut rng = Prng::seed(9);
        for _ in 0..500 {
            let x = vec![rng.uniform(0.2, 0.4), rng.uniform(-0.7, -0.5)];
            assert!(out.contains(&d.forward(&x)));
        }
    }

    #[test]
    fn activation_step_is_pointwise_monotone_image() {
        let b = BoxBounds::new(vec![-2.0, 0.5], vec![-1.0, 1.5]);
        let out = b.step(&Layer::Activation(Activation::Relu));
        // Outward rounding may widen the exact zero by one subnormal ULP.
        assert!(out.lo()[0] >= -1e-300 && out.lo()[0] <= 0.0);
        assert!(out.hi()[0] <= 1e-300 && out.hi()[0] >= 0.0);
        assert!(out.get(1).contains(0.5) && out.get(1).contains(1.5));
    }

    #[test]
    fn maxpool_step_takes_window_maxima() {
        let p = MaxPool2d::new(1, 2, 2, 2, 2).unwrap();
        let b = BoxBounds::new(vec![0.0, -1.0, 2.0, -3.0], vec![1.0, 5.0, 2.5, 0.0]);
        let out = b.step(&Layer::MaxPool2d(p));
        assert_eq!(out.lo(), &[2.0]);
        assert_eq!(out.hi(), &[5.0]);
    }

    #[test]
    fn degenerate_box_stays_near_concrete_value() {
        let d = Dense::new(Matrix::from_rows(&[&[0.1, 0.2, 0.3]]), vec![0.4]).unwrap();
        let x = [0.1, 0.1, 0.1];
        let y = d.forward(&x);
        let out = BoxBounds::from_point(&x).step(&Layer::Dense(d));
        assert!(out.contains(&y));
        // Outward rounding keeps the box tiny: a few ULPs.
        assert!(out.widths()[0] < 1e-12);
    }

    #[test]
    fn mean_width_averages() {
        let b = BoxBounds::new(vec![0.0, 0.0], vec![1.0, 3.0]);
        assert!((b.mean_width() - 2.0).abs() < 1e-12);
    }
}
