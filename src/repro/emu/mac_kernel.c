/* The sequential engine's add-and-round loop, the multiplier cast and
 * the convolution patch loops, compiled.
 *
 * Each output element runs the paper's MAC chain: add one exact
 * float64 product (or reduction term) onto the accumulator, then round
 * the sum into the accumulator format with that step's SR draw.  The
 * rounding is the integer bit-pattern arithmetic of
 * repro.fp.fastquant._quantize_fused_into, element by element; the
 * NumPy loop repro.emu.kernel._spec_loop is the specification and
 * repro.emu.kernel checks this file against it before first use.
 *
 * mac_cast runs the same rounding, round-to-nearest, over the GEMM
 * operands: the RN cast into the multiplier format.  Its specification
 * is the reference quantizer, repro.fp.quantize.quantize, which
 * repro.emu.kernel also checks it against before first use.
 *
 * mac_patch_gather and mac_patch_scatter are the im2col row gather of
 * a convolution and its adjoint scatter-add, read straight from the
 * padded input as Exo/Gemmini's conv reads inp[b, orow + krow - pad,
 * ...].  Their specification is the NumPy bodies of
 * repro.nn.functional.PatchRows, checked before first use too.
 *
 * Build flags matter: with FP contraction on, a compiler may fuse
 * "acc + a * b" into one FMA, skipping the product's rounding to
 * float64 and moving result bits.  repro.emu.kernel compiles with
 * -ffp-contract=off and without -ffast-math.
 *
 * No global state: ctypes releases the GIL around every call, so
 * several threads may run these functions at once.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define SIGN_MASK 0x8000000000000000ULL
#define MAG_MASK 0x7FFFFFFFFFFFFFFFULL
#define INF_BITS 0x7FF0000000000000ULL
#define SPECIAL_FIELD 0x7FF
/* Deepest cut that stays inside the float64 fraction field. */
#define MAX_DISCARD 51

/* Draw kinds: RN takes no draws; SR reads uint32 or uint64 draws. */
#define DRAWS_NONE 0
#define DRAWS_U32 4
#define DRAWS_U64 8

/* Per-format constants; mirrored by repro.emu.kernel._Spec. */
typedef struct {
    int64_t c1;            /* 52 - M: the cut for normal-range values */
    int64_t c2;            /* c1 + emin + 1023: the cut below emin */
    int64_t rbits;         /* SR random bits (unused for RN) */
    uint64_t max_bits;     /* bit pattern of max_value */
    uint64_t min_bits;     /* bit pattern of min_normal */
    int64_t flush;         /* 1 when the format has no subnormals */
    int64_t saturate;      /* clamp overflow to max_value, not inf */
    int64_t emin;
    int64_t mantissa_bits;
    double max_value;
    double min_normal;
} mac_spec;

/* repro.fp.quantize.quantize for one finite nonzero value: the
 * ldexp/floor decomposition, exact for every magnitude.  Only the deep
 * tail (cuts past the float64 fraction field) comes here, as in the
 * NumPy path. */
static double reference_round(double x, uint64_t draw, const mac_spec *s,
                              int stochastic)
{
    double sign = signbit(x) ? -1.0 : 1.0;
    double mag = fabs(x);
    int e2;
    (void)frexp(mag, &e2);
    int64_t exponent = e2 - 1;
    if (exponent < s->emin)
        exponent = s->emin;
    int shift = (int)(s->mantissa_bits - exponent);
    double k = ldexp(mag, shift);
    double k_floor = floor(k);
    double frac = k - k_floor;
    double up;
    if (stochastic) {
        double kept = floor(ldexp(frac, (int)s->rbits));
        up = kept + (double)draw >= ldexp(1.0, (int)s->rbits) ? 1.0 : 0.0;
    } else {
        up = frac > 0.5 || (frac == 0.5 && fmod(k_floor, 2.0) == 1.0)
             ? 1.0 : 0.0;
    }
    double result = ldexp(k_floor + up, -shift);
    if (s->saturate) {
        if (result > s->max_value)
            result = s->max_value;
    } else if (result > s->max_value) {
        result = INFINITY;
    }
    if (s->flush && result < s->min_normal)
        result = 0.0;
    return sign * result;
}

/* The general lane of _quantize_fused_into, element by element: the
 * cut t = max(c1, c2 - exponent field) moves below emin, values past
 * the float64 fraction field take the reference, inf and NaN pass
 * through.  Sums outside the format's normal range come here.  A
 * float64 subnormal (field 0) has the exponent of field 1, so it cuts
 * as field 1 does; only formats with 11 exponent bits reach it with a
 * cut inside the fraction field. */
static __attribute__((noinline)) double
round_general(double x, uint64_t draw, const mac_spec *s, int stochastic)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t mag = bits & MAG_MASK;
    int64_t field = (int64_t)(mag >> 52);
    if (field == SPECIAL_FIELD)
        return x;  /* inf and NaN pass through */
    int64_t t = s->c2 - (field > 0 ? field : 1);
    if (t > MAX_DISCARD) {
        if (mag != 0)
            return reference_round(x, draw, s, stochastic);
        t = MAX_DISCARD;  /* exact zero: rounds to signed zero */
    }
    if (t < s->c1)
        t = s->c1;
    if (stochastic) {
        mag = (((mag >> (t - s->rbits)) + draw) >> s->rbits) << t;
    } else {
        mag += (mag >> t) & 1u;
        mag = ((mag + ((1ULL << (t - 1)) - 1u)) >> t) << t;
    }
    if (mag > s->max_bits)
        mag = s->saturate ? s->max_bits : INF_BITS;
    if (s->flush && mag < s->min_bits)
        mag = 0;
    bits = (bits & SIGN_MASK) | mag;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* The scalar lane's constants, hoisted out of the loops. */
typedef struct {
    uint64_t min_bits;  /* the lane holds min_bits <= |x| < inf ... */
    uint64_t span;      /* ... that is, |x| - min_bits < span */
    uint64_t keep;      /* clears the c1 cut-off bits */
    uint64_t half_m1;   /* RN tie bias: 2**(c1 - 1) - 1 */
    int64_t c1;
    int64_t sr_shift;   /* c1 - rbits: where an SR draw lands */
    uint64_t max_bits;
    uint64_t over;      /* what an overflow becomes: max or inf */
} lane;

static inline __attribute__((always_inline)) lane
make_lane(const mac_spec *s)
{
    lane l;
    l.min_bits = s->min_bits;
    l.span = INF_BITS - s->min_bits;
    l.keep = ~((1ULL << s->c1) - 1u);
    l.half_m1 = (1ULL << (s->c1 - 1)) - 1u;
    l.c1 = s->c1;
    l.sr_shift = s->c1 - s->rbits;
    l.max_bits = s->max_bits;
    l.over = s->saturate ? s->max_bits : INF_BITS;
    return l;
}

/* Round one float64 sum into the accumulator format.  In the normal
 * range the cut is the constant c1, so _quantize_fused_into's scalar
 * lane reduces to one add and one mask:
 *   SR: ((mag >> (c1 - r)) + draw) >> r << c1
 *       == (mag + (draw << (c1 - r))) & keep   (floor of a sum with
 *          an integer addend),
 *   RN: (mag + lsb + half - 1) >> c1 << c1 == (...) & keep.
 * Rounding never lowers a magnitude below min_normal, so no flush. */
static inline __attribute__((always_inline)) double
round_one(double x, uint64_t draw, const mac_spec *s, const lane *l,
          int stochastic)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t mag = bits & MAG_MASK;
    /* Exact zeros ride this lane too: the add stays below the cut,
     * since draws are under 2**rbits. */
    if (mag - l->min_bits >= l->span && mag != 0)
        return round_general(x, draw, s, stochastic);
    if (stochastic)
        mag = (mag + (draw << l->sr_shift)) & l->keep;
    else
        mag = (mag + l->half_m1 + ((mag >> l->c1) & 1u)) & l->keep;
    if (mag > l->max_bits)
        mag = l->over;
    bits = (bits & SIGN_MASK) | mag;
    memcpy(&x, &bits, sizeof x);
    return x;
}

static inline __attribute__((always_inline)) uint64_t
draw_at(const void *draws, int64_t i, int kind)
{
    if (kind == DRAWS_U32)
        return ((const uint32_t *)draws)[i];
    if (kind == DRAWS_U64)
        return ((const uint64_t *)draws)[i];
    return 0;
}

static inline __attribute__((always_inline)) void
gemm_loop(const double *a, int64_t lda, const double *b, int64_t ldb,
          double *acc, int64_t m, int64_t n, int64_t steps,
          const void *draws, int64_t ldd, const mac_spec *s, int kind)
{
    const lane l = make_lane(s);
    for (int64_t i = 0; i < m; i++) {
        double *row = acc + i * n;
        for (int64_t k = 0; k < steps; k++) {
            const double av = a[i * lda + k];
            const double *brow = b + k * ldb;
            const int64_t off = k * ldd + i * n;
            for (int64_t j = 0; j < n; j++) {
                double sum = row[j] + av * brow[j];
                row[j] = round_one(sum, draw_at(draws, off + j, kind), s,
                                   &l, kind != DRAWS_NONE);
            }
        }
    }
}

/* acc[i, j] runs `steps` MAC steps: acc += a[i, k] * b[k, j], then
 * round with draws[k, i, j].  Row strides: a by lda, b by ldb, draws
 * by ldd per step; acc is a contiguous (m, n) block. */
void mac_gemm(const double *a, int64_t lda, const double *b, int64_t ldb,
              double *acc, int64_t m, int64_t n, int64_t steps,
              const void *draws, int64_t ldd, int64_t draw_bytes,
              const mac_spec *s)
{
    if (draw_bytes == DRAWS_U32)
        gemm_loop(a, lda, b, ldb, acc, m, n, steps, draws, ldd, s,
                  DRAWS_U32);
    else if (draw_bytes == DRAWS_U64)
        gemm_loop(a, lda, b, ldb, acc, m, n, steps, draws, ldd, s,
                  DRAWS_U64);
    else
        gemm_loop(a, lda, b, ldb, acc, m, n, steps, draws, ldd, s,
                  DRAWS_NONE);
}

static inline __attribute__((always_inline)) void
reduce_loop(const double *terms, double *acc, int64_t n, int64_t steps,
            const void *draws, const mac_spec *s, int kind)
{
    const lane l = make_lane(s);
    for (int64_t k = 0; k < steps; k++) {
        const double *term = terms + k * n;
        const int64_t off = k * n;
        for (int64_t j = 0; j < n; j++)
            acc[j] = round_one(acc[j] + term[j], draw_at(draws, off + j, kind),
                               s, &l, kind != DRAWS_NONE);
    }
}

/* acc[j] runs `steps` steps: acc += terms[k, j], then round with
 * draws[k, j]; terms and draws are contiguous (steps, n) blocks. */
void mac_reduce(const double *terms, double *acc, int64_t n, int64_t steps,
                const void *draws, int64_t draw_bytes, const mac_spec *s)
{
    if (draw_bytes == DRAWS_U32)
        reduce_loop(terms, acc, n, steps, draws, s, DRAWS_U32);
    else if (draw_bytes == DRAWS_U64)
        reduce_loop(terms, acc, n, steps, draws, s, DRAWS_U64);
    else
        reduce_loop(terms, acc, n, steps, draws, s, DRAWS_NONE);
}

/* out[i] = x[i] rounded to nearest, ties to even, into the format:
 * repro.fp.quantize.quantize(x, fmt, "nearest"), the RN cast of a GEMM
 * operand into the multiplier format.  out may alias x. */
void mac_cast(const double *x, double *out, int64_t n, const mac_spec *s)
{
    const lane l = make_lane(s);
    for (int64_t i = 0; i < n; i++)
        out[i] = round_one(x[i], 0, s, &l, 0);
}

/* Where im2col row r starts in xp, a contiguous (batch, c, hp, wp)
 * array: row r = (b * oh + oy) * ow + ox reads the k x k window at
 * (oy * stride, ox * stride) of every channel of image b. */
static inline int64_t
patch_offset(int64_t r, int64_t c, int64_t hp, int64_t wp, int64_t stride,
             int64_t oh, int64_t ow)
{
    const int64_t ox = r % ow, oy = (r / ow) % oh, b = r / ow / oh;
    return (b * c * hp + oy * stride) * wp + ox * stride;
}

static inline __attribute__((always_inline)) void
gather_loop(const double *xp, int64_t c, int64_t hp, int64_t wp, int64_t k,
            int64_t stride, int64_t oh, int64_t ow, int64_t r0, int64_t r1,
            double *out)
{
    for (int64_t r = r0; r < r1; r++) {
        const double *base = xp + patch_offset(r, c, hp, wp, stride, oh, ow);
        for (int64_t ci = 0; ci < c; ci++)
            for (int64_t ky = 0; ky < k; ky++) {
                const double *src = base + (ci * hp + ky) * wp;
                for (int64_t kx = 0; kx < k; kx++)
                    *out++ = src[kx];
            }
    }
}

/* out[r - r0, (ci * k + ky) * k + kx] = xp[b, ci, oy * stride + ky,
 * ox * stride + kx] for the im2col rows r0 <= r < r1: out is a
 * contiguous (r1 - r0, c * k * k) block.  The 3x3 window gets its own
 * copy of the loop, with the window rows unrolled. */
void mac_patch_gather(const double *xp, int64_t c, int64_t hp, int64_t wp,
                      int64_t k, int64_t stride, int64_t oh, int64_t ow,
                      int64_t r0, int64_t r1, double *out)
{
    if (k == 3)
        gather_loop(xp, c, hp, wp, 3, stride, oh, ow, r0, r1, out);
    else
        gather_loop(xp, c, hp, wp, k, stride, oh, ow, r0, r1, out);
}

static inline __attribute__((always_inline)) void
scatter_loop(const double *values, int64_t c, int64_t hp, int64_t wp,
             int64_t k, int64_t stride, int64_t oh, int64_t ow, int64_t r0,
             int64_t r1, double *xp)
{
    for (int64_t r = r0; r < r1; r++) {
        double *base = xp + patch_offset(r, c, hp, wp, stride, oh, ow);
        for (int64_t ci = 0; ci < c; ci++)
            for (int64_t ky = 0; ky < k; ky++) {
                double *dst = base + (ci * hp + ky) * wp;
                for (int64_t kx = 0; kx < k; kx++)
                    dst[kx] += *values++;
            }
    }
}

/* The adjoint of mac_patch_gather: xp[b, ci, oy * stride + ky, ox *
 * stride + kx] += values[r - r0, (ci * k + ky) * k + kx].  The adds run
 * in np.add.at's (row, ci, ky, kx) order, so each pixel's float64 sum
 * takes its terms in the same sequence as the NumPy scatter. */
void mac_patch_scatter(const double *values, int64_t c, int64_t hp,
                       int64_t wp, int64_t k, int64_t stride, int64_t oh,
                       int64_t ow, int64_t r0, int64_t r1, double *xp)
{
    if (k == 3)
        scatter_loop(values, c, hp, wp, 3, stride, oh, ow, r0, r1, xp);
    else
        scatter_loop(values, c, hp, wp, k, stride, oh, ow, r0, r1, xp);
}
