//! References the `serve` and `fleet` outputs are checked against: one
//! direct `FrameEngine` render per distinct (scene, azimuth), fitted and
//! rendered from scratch outside the timed region, on every CPU.

use crate::adapter::engine::{self, same_bytes, Engine};
use crate::adapter::service::{AZIMUTH_STEP_DEG, PLAN_REFRESH_EVERY};
use crate::sched::{View, SCENES};
use crate::sys;
use asdr_core::algo::ExecPolicy;
use asdr_math::Image;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on [`sys::nproc`] threads, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new(items.iter().map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..sys::nproc().min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return };
                let r = f(item);
                out.lock().expect("result lock poisoned")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("result lock poisoned")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// Per (scene, azimuth): the engine's frames of the longest request seen,
/// and the first frame's PSNR against the fixed-count reference.
pub struct References {
    resolution: u32,
    by_view: BTreeMap<(usize, u32), (Vec<Image>, f64)>,
}

impl References {
    /// Renders references for every (view, frames) request in `requests`.
    /// A request's frames are a prefix of the longest request's at its view:
    /// the first frame is always probed, and later ones reuse its plan.
    pub fn build(requests: impl IntoIterator<Item = (View, usize)>, resolution: u32) -> References {
        let mut longest: BTreeMap<(usize, u32), (View, usize)> = BTreeMap::new();
        for (view, frames) in requests {
            let e =
                longest.entry((view.scene, view.azimuth_deg.to_bits())).or_insert((view, frames));
            e.1 = e.1.max(frames);
        }
        let scenes: Vec<usize> =
            (0..SCENES.len()).filter(|s| longest.keys().any(|k| k.0 == *s)).collect();
        let fitted = par_map(&scenes, |&s| (s, engine::fit(SCENES[s])));
        let models: BTreeMap<usize, _> = fitted.into_iter().collect();
        // sequential engines per view: the check then also covers the
        // engine's byte-identity across execution policies
        let asdr = Engine::new(engine::asdr_options(resolution), ExecPolicy::Sequential);
        let reference = Engine::new(engine::reference_options(), ExecPolicy::Sequential);
        let todo: Vec<(View, usize)> = longest.values().copied().collect();
        let rendered = par_map(&todo, |(view, frames)| {
            let model = &models[&view.scene];
            let cams: Vec<_> = (0..*frames)
                .map(|i| engine::camera(view, resolution, i, AZIMUTH_STEP_DEG))
                .collect();
            let images = asdr.sequence(model, &cams, PLAN_REFRESH_EVERY);
            let psnr =
                asdr_math::metrics::psnr(&images[0], &reference.frame(model, &cams[0]).image);
            (images, psnr)
        });
        References { resolution, by_view: longest.into_keys().zip(rendered).collect() }
    }

    /// Whether `images` are bit-identical to the reference frames of a
    /// `frames`-frame request for `view`, and the PSNR of its first frame.
    pub fn check(&self, view: &View, frames: usize, images: &[Image]) -> (bool, f64) {
        let Some((want, psnr)) = self.by_view.get(&(view.scene, view.azimuth_deg.to_bits())) else {
            return (false, 0.0);
        };
        let same = images.len() == frames
            && frames <= want.len()
            && images
                .iter()
                .zip(want)
                .all(|(a, b)| a.width() == self.resolution && same_bytes(a, b));
        (same, *psnr)
    }
}
