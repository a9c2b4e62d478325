//! IVF_SQ8 (Faiss's `IndexIVFScalarQuantizer` with `QT_8bit`), the
//! survey's fourth quantization index (§II-B): the IVF core
//! ([`crate::ivf`]) with one byte per dimension. Not part of the paper's
//! evaluation; the specialized engine's `IvfSq8Index` is the core over
//! resident buckets, and there is no paged IVF_SQ8.

use crate::ivf::{sealed, Ivf, Resident};
use crate::options::GeneralizedOptions;
use std::borrow::Cow;
use vdb_vecmath::sq::ScalarQuantizer;
use vdb_vecmath::{BuildTiming, DistanceKernel, IvfParams, VectorSet};

/// The 8-bit scalar-quantized code of each row.
pub struct Sq8(ScalarQuantizer);

impl sealed::Codec for Sq8 {
    type Params = ();
    type Codes = Vec<u8>;

    /// Per-dimension ranges of the coarse quantizer's sample.
    fn train(_: &GeneralizedOptions, _: (), sample: &VectorSet) -> Sq8 {
        Sq8(ScalarQuantizer::train(sample))
    }

    fn code_len(&self) -> usize {
        self.0.dim()
    }

    fn encode<'v>(&self, v: &'v [f32]) -> Cow<'v, [u8]> {
        Cow::Owned(self.0.encode(v))
    }

    fn scorer<'a>(
        &'a self,
        opts: &GeneralizedOptions,
        query: &'a [f32],
    ) -> impl Fn(&[u8]) -> f32 + 'a {
        let (sq, kernel) = (&self.0, opts.distance);
        move |code| match kernel {
            DistanceKernel::Reference => sq.asym_l2_sqr(query, code),
            DistanceKernel::Optimized => sq.asym_l2_sqr_unrolled(query, code),
        }
    }

    /// The per-dimension ranges: a minimum and a step each.
    fn extra_bytes(&self) -> usize {
        self.0.dim() * 2 * std::mem::size_of::<f32>()
    }
}

/// The specialized engine's IVF_SQ8 API.
impl Ivf<Resident<Sq8>, Sq8> {
    /// Train coarse centroids and per-dimension ranges on a sample, then
    /// encode and add all of `data`.
    pub fn build(
        opts: impl Into<GeneralizedOptions>,
        params: IvfParams,
        data: &VectorSet,
    ) -> (Self, BuildTiming) {
        Self::build_resident(opts.into(), params, (), None, data)
    }

    /// The scalar quantizer.
    pub fn sq(&self) -> &ScalarQuantizer {
        &self.codec.0
    }
}
