/* The sequential engine's add-and-round loop, the one-shot rounding and
 * the convolution patch loops, compiled.
 *
 * mac_gemm runs one chunk of MAC steps for every entry of a batch, with
 * per-entry strides (0 for a weight every entry shares) and draws whose
 * step and entry strides need not be in C order.  Each output element
 * runs the paper's MAC chain: add one exact
 * float64 product onto the accumulator, then round the sum into the
 * accumulator format with that step's SR draw (Fig. 1: r random bits
 * added below the kept significand).  round_one is that rounding, as
 * integer arithmetic on the float64 bit pattern.  Its specification is
 * the reference quantizer, repro.fp.quantize.quantize: the NumPy loop
 * repro.emu.kernel._spec_loop rounds each step with it, and
 * repro.emu.kernel checks this file against both before first use.
 *
 * mac_round runs round_one once over a flat buffer: the RN cast of a
 * GEMM operand into the multiplier format, and every one-shot rounding
 * (RN, or SR with caller-supplied draws) that reaches quantize with the
 * kernel.  A reduction has no loop of its own: the engine runs it
 * through mac_gemm as a chain with unit multipliers.
 *
 * mac_patch_gather and mac_patch_scatter are the im2col row gather of
 * a convolution and its adjoint scatter-add, read straight from the
 * padded input as Exo/Gemmini's conv reads inp[b, orow + krow - pad,
 * ...].  Their specification is the NumPy bodies of
 * repro.nn.functional.PatchRows, checked before first use too.
 *
 * mac_gemm has lanes with the same bits: the portable scalar loop and,
 * on x86-64, one branch-free vector body compiled for AVX2 and for
 * AVX-512F.  mac_lanes() reports which vector lanes the CPU runs;
 * repro.emu.kernel checks every one of them and runs the widest.
 *
 * mac_pcg_table is the SR randomness of
 * repro.prng.streams.SoftwareStream, one stream or a StreamStack of
 * them per call: for each stream, NumPy's SeedSequence and PCG64
 * seeding of a substream not yet derived (pcg_seed), then its draws of
 * Generator.integers(0, 2**r, dtype=np.uint64) for r <= 32
 * (pcg_draws).  pcg_draws has the lanes of mac_gemm: the serial LCG
 * loop, and on x86-64 jump-ahead LCG lanes, 16 in AVX2 vectors and 32
 * in AVX-512F vectors, written with intrinsics.  NumPy is the
 * specification, and repro.emu.kernel checks the table call, every
 * lane, against it before first use too.
 *
 * Build flags matter: with FP contraction on, a compiler may fuse
 * "acc + a * b" into one FMA, skipping the product's rounding to
 * float64 and moving result bits.  repro.emu.kernel compiles with
 * -ffp-contract=off, with -ftree-vectorize -fvect-cost-model=dynamic
 * (so GCC vectorizes the K loop's vector body at -O2), and without
 * -ffast-math or -march: one build runs on every CPU of the machine
 * type.
 *
 * No global state: ctypes releases the GIL around every call, so
 * several threads may run these functions at once (on one PCG64 state
 * at a time: the caller serializes the draws of one stream).
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
 * tail (cuts past the float64 fraction field) comes here. */
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

/* Rounding outside the normal range, by bit pattern: the cut t =
 * max(c1, c2 - exponent field) moves below emin, values past the
 * float64 fraction field take reference_round, inf and NaN pass
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
 * range the cut is the constant c1, so the bit-pattern rounding
 * reduces to one add and one mask:
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

/* The vector lane: the same MAC steps as gemm_loop, reordered so the
 * rounding runs without a branch over a flat run of elements.
 *
 * A tile is whole accumulator rows, at most TILE elements, or a span
 * of TILE columns of one row when a row is wider than that.  acc is a
 * contiguous (m, n) block and one step's draws are laid out the same
 * way, so either kind of tile is one flat run of both.  The tile runs
 * its steps in order (step-outer): each element still sees every step
 * in order with that step's draw; only the order of independent
 * elements changes.  Per step, a first pass writes the float64 sums
 * acc + a * b into a stack buffer; a second runs round_one's
 * normal-range arithmetic over the buffer with no branch, ORing
 * round_one's "outside the lane" test.  Only when that flag is set
 * does a scalar pass redo the flagged elements from the saved sums
 * through round_general. */
#define TILE 1024  /* elements: 8 KB of sums, 8 KB of accumulators */

static inline __attribute__((always_inline)) void
vector_loop(const double *a, int64_t lda, const double *b, int64_t ldb,
            double *acc, int64_t m, int64_t n, int64_t steps,
            const void *draws, int64_t ldd, const mac_spec *s, int kind)
{
    /* A local copy, not a lane *: stores to acc may alias what a
     * pointer reaches, so every element would reload the constants. */
    const lane l = make_lane(s);
    double sums[TILE];
    if (n <= 0)
        return;
    const int64_t rows = n < TILE ? TILE / n : 1;
    const int64_t cols = n < TILE ? n : TILE;
    for (int64_t i0 = 0; i0 < m; i0 += rows) {
        const int64_t i1 = i0 + rows < m ? i0 + rows : m;
        for (int64_t j0 = 0; j0 < n; j0 += cols) {
            const int64_t width = j0 + cols < n ? cols : n - j0;
            const int64_t len = (i1 - i0) * width;
            double *out = acc + i0 * n + j0;
            for (int64_t k = 0; k < steps; k++) {
                const double *brow = b + k * ldb + j0;
                for (int64_t i = i0; i < i1; i++) {
                    const double av = a[i * lda + k];
                    const double *row = acc + i * n + j0;
                    double *sum = sums + (i - i0) * width;
                    for (int64_t j = 0; j < width; j++)
                        sum[j] = row[j] + av * brow[j];
                }
                const int64_t off = k * ldd + i0 * n + j0;
                uint64_t outside = 0;
                for (int64_t e = 0; e < len; e++) {
                    uint64_t bits;
                    memcpy(&bits, &sums[e], sizeof bits);
                    uint64_t mag = bits & MAG_MASK;
                    outside |= (mag - l.min_bits >= l.span) & (mag != 0);
                    if (kind != DRAWS_NONE)
                        mag = (mag + (draw_at(draws, off + e, kind)
                                      << l.sr_shift)) & l.keep;
                    else
                        mag = (mag + l.half_m1 + ((mag >> l.c1) & 1u))
                              & l.keep;
                    mag = mag > l.max_bits ? l.over : mag;
                    bits = (bits & SIGN_MASK) | mag;
                    memcpy(&out[e], &bits, sizeof bits);
                }
                if (!outside)
                    continue;
                for (int64_t e = 0; e < len; e++) {
                    uint64_t bits;
                    memcpy(&bits, &sums[e], sizeof bits);
                    const uint64_t mag = bits & MAG_MASK;
                    if (mag - l.min_bits >= l.span && mag != 0)
                        out[e] = round_general(
                            sums[e], draw_at(draws, off + e, kind), s,
                            kind != DRAWS_NONE);
                }
            }
        }
    }
}

/* Lanes of mac_gemm: the portable scalar loop, and on x86-64 the
 * vector loop compiled for AVX2 and for AVX-512F; mac_lanes() says
 * which vector lanes the CPU runs. */
#define LANE_SCALAR 0
#define LANE_AVX2 1
#define LANE_AVX512F 2

#define GEMM_PARAMS                                                       \
    const double *a, int64_t lda, const double *b, int64_t ldb,          \
    double *acc, int64_t m, int64_t n, int64_t steps, const void *draws, \
    int64_t ldd, int64_t draw_bytes, const mac_spec *s
#define GEMM_LOOP(loop)                                                   \
    do {                                                                  \
        if (draw_bytes == DRAWS_U32)                                      \
            loop(a, lda, b, ldb, acc, m, n, steps, draws, ldd, s,         \
                 DRAWS_U32);                                              \
        else if (draw_bytes == DRAWS_U64)                                 \
            loop(a, lda, b, ldb, acc, m, n, steps, draws, ldd, s,         \
                 DRAWS_U64);                                              \
        else                                                              \
            loop(a, lda, b, ldb, acc, m, n, steps, draws, ldd, s,         \
                 DRAWS_NONE);                                             \
    } while (0)

#if defined(__x86_64__)
static __attribute__((target("avx2"))) void gemm_avx2(GEMM_PARAMS)
{
    GEMM_LOOP(vector_loop);
}

static __attribute__((target("avx512f"))) void gemm_avx512f(GEMM_PARAMS)
{
    GEMM_LOOP(vector_loop);
}
#endif

/* Bit LANE_x is set when the CPU runs vector lane x. */
int64_t mac_lanes(void)
{
    int64_t lanes = 0;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        lanes |= 1 << LANE_AVX2;
    if (__builtin_cpu_supports("avx512f"))
        lanes |= 1 << LANE_AVX512F;
#endif
    return lanes;
}

/* One batch entry of mac_gemm on the given lane. */
static void gemm_entry(GEMM_PARAMS, int64_t lane)
{
#if defined(__x86_64__)
    if (lane == LANE_AVX512F) {
        gemm_avx512f(a, lda, b, ldb, acc, m, n, steps, draws, ldd,
                     draw_bytes, s);
        return;
    }
    if (lane == LANE_AVX2) {
        gemm_avx2(a, lda, b, ldb, acc, m, n, steps, draws, ldd, draw_bytes,
                  s);
        return;
    }
#else
    (void)lane;
#endif
    GEMM_LOOP(gemm_loop);
}

/* For every batch entry e < batch, acc[e, i, j] runs `steps` MAC steps:
 * acc += a[e, i, k] * b[e, k, j], then round with draws[k, e, i, j].
 * Strides count elements.  Entry strides: a by sa, b by sb (0 for a
 * weight the entries share), acc by sacc, draws by sd; row strides: a
 * by lda, b by ldb, draws by ldd per step.  Each entry's acc, and each
 * step's draws of an entry, is a contiguous (m, n) block.  Every lane
 * gives the same bits; `lane` must be one that mac_lanes() reports, or
 * LANE_SCALAR. */
void mac_gemm(const double *a, int64_t sa, int64_t lda, const double *b,
              int64_t sb, int64_t ldb, double *acc, int64_t sacc,
              int64_t batch, int64_t m, int64_t n, int64_t steps,
              const void *draws, int64_t sd, int64_t ldd,
              int64_t draw_bytes, const mac_spec *s, int64_t lane)
{
    for (int64_t e = 0; e < batch; e++) {
        const void *entry_draws =
            draws ? (const char *)draws + e * sd * draw_bytes : draws;
        gemm_entry(a + e * sa, lda, b + e * sb, ldb, acc + e * sacc, m, n,
                   steps, entry_draws, ldd, draw_bytes, s, lane);
    }
}

static inline __attribute__((always_inline)) void
round_loop(const double *x, double *out, int64_t n, const void *draws,
           const mac_spec *s, int kind)
{
    const lane l = make_lane(s);
    for (int64_t i = 0; i < n; i++)
        out[i] = round_one(x[i], draw_at(draws, i, kind), s, &l,
                           kind != DRAWS_NONE);
}

/* out[i] = x[i] rounded into the format: to nearest, ties to even,
 * without draws (draw_bytes 0), or r-bit SR with draws[i], uint32
 * (draw_bytes 4) or uint64 (8).  repro.fp.quantize.quantize(x, fmt,
 * mode, rbits=..., random_ints=draws) over a flat buffer; out may
 * alias x. */
void mac_round(const double *x, double *out, int64_t n, const void *draws,
               int64_t draw_bytes, const mac_spec *s)
{
    if (draw_bytes == DRAWS_U32)
        round_loop(x, out, n, draws, s, DRAWS_U32);
    else if (draw_bytes == DRAWS_U64)
        round_loop(x, out, n, draws, s, DRAWS_U64);
    else
        round_loop(x, out, n, draws, s, DRAWS_NONE);
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

/* SR randomness: a SoftwareStream substream is the PCG64 generator that
 * NumPy seeds from SeedSequence(entropy=seed, spawn_key=path), and a
 * draw of r <= 32 bits is Generator.integers(0, 2**r, dtype=np.uint64).
 *
 * A stream's state is six uint64 words, PCG64.state in the order
 * repro.emu.kernel.PcgState keeps it: the 128-bit LCG state and
 * increment, high word first, then PCG64's half-word cache. */
#define PCG_STATE_HI 0
#define PCG_STATE_LO 1
#define PCG_INC_HI 2
#define PCG_INC_LO 3
#define PCG_HAS_UINT32 4  /* 1 while a drawn upper half-word waits */
#define PCG_UINTEGER 5    /* that half-word */
#define PCG_WORDS 6

/* The hash constants of numpy.random.SeedSequence, pool size 4. */
#define SS_POOL 4
#define SS_INIT_A 0x43b0d7e5u
#define SS_MULT_A 0x931e8875u
#define SS_INIT_B 0x8b51f9ddu
#define SS_MULT_B 0x58f38dedu
#define SS_MIX_L 0xca01f9ddu
#define SS_MIX_R 0x4973f715u
#define SS_XSHIFT 16

static inline uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> SS_XSHIFT);
}

static inline uint32_t ss_mix(uint32_t x, uint32_t y)
{
    const uint32_t result = SS_MIX_L * x - SS_MIX_R * y;
    return result ^ (result >> SS_XSHIFT);
}

/* Word i of SeedSequence's assembled entropy: the n_run run-entropy
 * words, zero-padded to the pool (the pad words) when a spawn key
 * follows, then the spawn key's words.  `words` holds the run words
 * and then the key words, without the padding. */
static inline uint32_t ss_word(const uint32_t *words, int64_t n_run,
                               int64_t pad, int64_t i)
{
    if (i < n_run)
        return words[i];
    return i < n_run + pad ? 0 : words[i - pad];
}

/* PCG64's 128-bit LCG multiplier, high and low words. */
#define PCG_MULT_HI 0x2360ED051FC65DA4ULL
#define PCG_MULT_LO 0x4385DF649FCCF645ULL

/* One LCG step, state = state * multiplier + inc mod 2**128, on 64-bit
 * halves: a 128-bit loop variable makes GCC keep the state on the
 * stack, where every step waits on a store and a load. */
static inline __attribute__((always_inline)) void
pcg_step(uint64_t *hi, uint64_t *lo, uint64_t inc_hi, uint64_t inc_lo)
{
    const uint64_t carry_in =
        (uint64_t)(((unsigned __int128)*lo * PCG_MULT_LO) >> 64);
    const uint64_t next_lo = *lo * PCG_MULT_LO + inc_lo;
    *hi = carry_in + *lo * PCG_MULT_HI + *hi * PCG_MULT_LO + inc_hi
          + (next_lo < inc_lo);
    *lo = next_lo;
}

/* PCG64's XSL-RR output of an LCG state. */
static inline uint64_t pcg_output(uint64_t hi, uint64_t lo)
{
    const uint64_t folded = hi ^ lo;
    const unsigned rot = (unsigned)(hi >> 58);
    return (folded >> rot) | (folded << ((-rot) & 63u));
}

/* st = PCG64(SeedSequence(entropy=run, spawn_key=key)).state: the run
 * entropy's n_run uint32 words followed by the spawn key's n_key, each
 * integer split into little-endian words as SeedSequence splits it. */
static void pcg_seed(const uint32_t *words, int64_t n_run, int64_t n_key,
                     uint64_t *st)
{
    const int64_t pad = n_key > 0 && n_run < SS_POOL ? SS_POOL - n_run : 0;
    const int64_t n = n_run + pad + n_key;
    uint32_t pool[SS_POOL];
    uint32_t hash_const = SS_INIT_A;
    /* SeedSequence.mix_entropy: hash the first words into the pool,
     * mix every pool word into every other, then mix each remaining
     * word into every pool word. */
    for (int64_t i = 0; i < SS_POOL; i++)
        pool[i] = ss_hashmix(i < n ? ss_word(words, n_run, pad, i) : 0,
                             &hash_const);
    for (int src = 0; src < SS_POOL; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst],
                                   ss_hashmix(pool[src], &hash_const));
    for (int64_t src = SS_POOL; src < n; src++) {
        const uint32_t word = ss_word(words, n_run, pad, src);
        for (int dst = 0; dst < SS_POOL; dst++)
            pool[dst] = ss_mix(pool[dst], ss_hashmix(word, &hash_const));
    }
    /* SeedSequence.generate_state(4, np.uint64): eight hashed uint32
     * words cycling through the pool, paired little-endian. */
    uint64_t seed[4];
    hash_const = SS_INIT_B;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % SS_POOL] ^ hash_const;
        hash_const *= SS_MULT_B;
        value *= hash_const;
        value ^= value >> SS_XSHIFT;
        if (i % 2 == 0)
            seed[i / 2] = value;
        else
            seed[i / 2] |= (uint64_t)value << 32;
    }
    /* PCG64's set_seed, pcg_setseq_128_srandom_r: the increment is
     * (seed[2], seed[3]) << 1 | 1, high word first; the state starts at
     * 0, steps, adds (seed[0], seed[1]) and steps again. */
    const uint64_t inc_hi = seed[2] << 1 | seed[3] >> 63;
    const uint64_t inc_lo = seed[3] << 1 | 1u;
    uint64_t lo = inc_lo + seed[1];
    uint64_t hi = inc_hi + seed[0] + (lo < seed[1]);
    pcg_step(&hi, &lo, inc_hi, inc_lo);
    st[PCG_STATE_HI] = hi;
    st[PCG_STATE_LO] = lo;
    st[PCG_INC_HI] = inc_hi;
    st[PCG_INC_LO] = inc_lo;
    st[PCG_HAS_UINT32] = 0;
    st[PCG_UINTEGER] = 0;
}

static inline __attribute__((always_inline)) void
put_draw(void *out, int64_t i, uint32_t value, int kind)
{
    if (kind == DRAWS_U32)
        ((uint32_t *)out)[i] = value;
    else
        ((uint64_t *)out)[i] = value;
}

static inline __attribute__((always_inline)) void
pcg_loop(uint64_t *st, int64_t rbits, void *out, int64_t n, int kind)
{
    uint64_t hi = st[PCG_STATE_HI], lo = st[PCG_STATE_LO];
    const uint64_t inc_hi = st[PCG_INC_HI], inc_lo = st[PCG_INC_LO];
    const int shift = (int)(32 - rbits);
    /* NumPy's next_uint32 keeps the upper half of every word it draws
     * in uinteger, and leaves it there once the half-word is used. */
    uint64_t upper = st[PCG_UINTEGER];
    int64_t i = 0;
    if (n > 0 && st[PCG_HAS_UINT32]) {
        put_draw(out, 0, (uint32_t)upper >> shift, kind);
        st[PCG_HAS_UINT32] = 0;
        i = 1;
    }
    for (; i + 2 <= n; i += 2) {
        pcg_step(&hi, &lo, inc_hi, inc_lo);  /* step, then output */
        const uint64_t word = pcg_output(hi, lo);
        upper = word >> 32;
        put_draw(out, i, (uint32_t)word >> shift, kind);
        put_draw(out, i + 1, (uint32_t)upper >> shift, kind);
    }
    if (i < n) {
        pcg_step(&hi, &lo, inc_hi, inc_lo);
        const uint64_t word = pcg_output(hi, lo);
        upper = word >> 32;
        put_draw(out, i, (uint32_t)word >> shift, kind);
        st[PCG_HAS_UINT32] = 1;
    }
    st[PCG_STATE_HI] = hi;
    st[PCG_STATE_LO] = lo;
    st[PCG_UINTEGER] = upper;
}

static void pcg_scalar(uint64_t *st, int64_t rbits, void *out, int64_t n,
                       int64_t out_bytes)
{
    if (out_bytes == DRAWS_U32)
        pcg_loop(st, rbits, out, n, DRAWS_U32);
    else
        pcg_loop(st, rbits, out, n, DRAWS_U64);
}

#if defined(__x86_64__)
/* The vector lanes of pcg_draws: L consecutive LCG states, lane j
 * holding the state of word j of an L-word block, each stepping L words
 * at once by the jump-ahead map state * M**L + inc * (1 + M + ... +
 * M**(L-1)) mod 2**128.  Four vectors make the L lanes (32 as four
 * 8-lane AVX-512F vectors, 16 as four 4-lane AVX2 vectors), so four
 * independent multiply chains overlap where the scalar loop waits on
 * one. */
#define PCG_LANES_MAX 32
/* PCG_MULT ** 32 and ** 16 mod 2**128, high and low words. */
#define PCG_MULT32_HI 0x2C82901AD1CB0CD1ULL
#define PCG_MULT32_LO 0x82B631BA6B261781ULL
#define PCG_MULT16_HI 0xB6A4239F3B315F84ULL
#define PCG_MULT16_LO 0xF6EF6D3D288C03C1ULL

/* The lanes' start: (hi[j], lo[j]) is the state after j + 1 steps, so
 * lane j outputs word j of the first block.  jump_inc is the increment
 * of L steps: the state that L steps reach from 0. */
typedef struct {
    uint64_t hi[PCG_LANES_MAX], lo[PCG_LANES_MAX];
    uint64_t jump_inc_hi, jump_inc_lo;
} pcg_lanes;

static inline __attribute__((always_inline)) void
pcg_lanes_start(const uint64_t *st, int64_t lanes, pcg_lanes *p)
{
    const uint64_t inc_hi = st[PCG_INC_HI], inc_lo = st[PCG_INC_LO];
    uint64_t hi = st[PCG_STATE_HI], lo = st[PCG_STATE_LO];
    uint64_t jump_hi = 0, jump_lo = 0;
    for (int64_t j = 0; j < lanes; j++) {
        pcg_step(&hi, &lo, inc_hi, inc_lo);
        p->hi[j] = hi;
        p->lo[j] = lo;
        pcg_step(&jump_hi, &jump_lo, inc_hi, inc_lo);
    }
    p->jump_inc_hi = jump_hi;
    p->jump_inc_lo = jump_lo;
}

/* The sequential state after the lanes' last block: the last lane's
 * state, with uinteger the upper half of its word, as NumPy's
 * next_uint32 leaves it.  The cache is empty: blocks are whole words. */
static inline void pcg_lanes_finish(uint64_t *st, uint64_t hi, uint64_t lo)
{
    st[PCG_STATE_HI] = hi;
    st[PCG_STATE_LO] = lo;
    st[PCG_HAS_UINT32] = 0;
    st[PCG_UINTEGER] = pcg_output(hi, lo) >> 32;
}

/* The body of each lane: per block, every vector's XSL-RR words are
 * stored as their uint32 halves, low half first (NumPy's draw order),
 * shifted right by 32 - rbits, then every lane steps L words.  The
 * 64x64-bit products are built from vpmuludq's 32x32 -> 64-bit pieces
 * (AVX-512F has no 64-bit multiply without DQ):
 *   lo * m_lo = p00 + (p01 + p10) << 32 + p11 << 64   (all 128 bits),
 *   hi * m_lo + lo * m_hi = only their low 64 bits. */
static inline __attribute__((always_inline, target("avx512f"))) void
pcg_jump_avx512f(__m512i *hi, __m512i *lo, const __m512i *m,
                 __m512i inc_hi, __m512i inc_lo)
{
    /* m: the multiplier's 32-bit pieces, lo word low and high, then
     * hi word low and high, one per 64-bit lane. */
    const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFFu);
    const __m512i lo_up = _mm512_srli_epi64(*lo, 32);
    const __m512i hi_up = _mm512_srli_epi64(*hi, 32);
    const __m512i p00 = _mm512_mul_epu32(*lo, m[0]);
    const __m512i p01 = _mm512_mul_epu32(*lo, m[1]);
    const __m512i p10 = _mm512_mul_epu32(lo_up, m[0]);
    const __m512i p11 = _mm512_mul_epu32(lo_up, m[1]);
    const __m512i mid = _mm512_add_epi64(
        _mm512_srli_epi64(p00, 32),
        _mm512_add_epi64(_mm512_and_si512(p01, low32),
                         _mm512_and_si512(p10, low32)));
    const __m512i prod_lo = _mm512_or_si512(_mm512_and_si512(p00, low32),
                                            _mm512_slli_epi64(mid, 32));
    const __m512i prod_hi = _mm512_add_epi64(
        _mm512_add_epi64(p11, _mm512_srli_epi64(mid, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(p01, 32),
                         _mm512_srli_epi64(p10, 32)));
    const __m512i cross = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_mul_epu32(*hi, m[0]),
                         _mm512_mul_epu32(*lo, m[2])),
        _mm512_slli_epi64(_mm512_add_epi64(
            _mm512_add_epi64(_mm512_mul_epu32(*hi, m[1]),
                             _mm512_mul_epu32(hi_up, m[0])),
            _mm512_add_epi64(_mm512_mul_epu32(*lo, m[3]),
                             _mm512_mul_epu32(lo_up, m[2]))), 32));
    const __m512i next_lo = _mm512_add_epi64(prod_lo, inc_lo);
    const __mmask8 carry = _mm512_cmplt_epu64_mask(next_lo, inc_lo);
    const __m512i next_hi = _mm512_add_epi64(_mm512_add_epi64(prod_hi, cross),
                                             inc_hi);
    *hi = _mm512_mask_add_epi64(next_hi, carry, next_hi,
                                _mm512_set1_epi64(1));
    *lo = next_lo;
}

static inline __attribute__((always_inline, target("avx512f"))) void
pcg_lanes_avx512f(uint64_t *st, int64_t rbits, void *out, int64_t blocks,
                  int kind)
{
    pcg_lanes p;
    pcg_lanes_start(st, 32, &p);
    __m512i hi[4], lo[4];
    for (int v = 0; v < 4; v++) {
        hi[v] = _mm512_loadu_si512(p.hi + 8 * v);
        lo[v] = _mm512_loadu_si512(p.lo + 8 * v);
    }
    const __m512i m[4] = {
        _mm512_set1_epi64(PCG_MULT32_LO & 0xFFFFFFFFu),
        _mm512_set1_epi64(PCG_MULT32_LO >> 32),
        _mm512_set1_epi64(PCG_MULT32_HI & 0xFFFFFFFFu),
        _mm512_set1_epi64(PCG_MULT32_HI >> 32)};
    const __m512i inc_hi = _mm512_set1_epi64((long long)p.jump_inc_hi);
    const __m512i inc_lo = _mm512_set1_epi64((long long)p.jump_inc_lo);
    const __m128i shift = _mm_cvtsi64_si128(32 - rbits);
    for (int64_t block = 0;;) {
        for (int v = 0; v < 4; v++) {
            const __m512i folded = _mm512_xor_si512(hi[v], lo[v]);
            const __m512i words = _mm512_rorv_epi64(
                folded, _mm512_srli_epi64(hi[v], 58));
            const __m512i draws = _mm512_srl_epi32(words, shift);
            if (kind == DRAWS_U32) {
                _mm512_storeu_si512((uint32_t *)out + 16 * v, draws);
            } else {
                uint64_t *at = (uint64_t *)out + 16 * v;
                _mm512_storeu_si512(at, _mm512_cvtepu32_epi64(
                    _mm512_castsi512_si256(draws)));
                _mm512_storeu_si512(at + 8, _mm512_cvtepu32_epi64(
                    _mm512_extracti64x4_epi64(draws, 1)));
            }
        }
        out = (char *)out + 64 * kind;
        if (++block == blocks)
            break;
        for (int v = 0; v < 4; v++)
            pcg_jump_avx512f(&hi[v], &lo[v], m, inc_hi, inc_lo);
    }
    _mm512_storeu_si512(p.hi + 24, hi[3]);
    _mm512_storeu_si512(p.lo + 24, lo[3]);
    pcg_lanes_finish(st, p.hi[31], p.lo[31]);
}

static inline __attribute__((always_inline, target("avx2"))) void
pcg_jump_avx2(__m256i *hi, __m256i *lo, const __m256i *m, __m256i inc_hi,
              __m256i inc_lo)
{
    const __m256i low32 = _mm256_set1_epi64x(0xFFFFFFFFu);
    const __m256i lo_up = _mm256_srli_epi64(*lo, 32);
    const __m256i hi_up = _mm256_srli_epi64(*hi, 32);
    const __m256i p00 = _mm256_mul_epu32(*lo, m[0]);
    const __m256i p01 = _mm256_mul_epu32(*lo, m[1]);
    const __m256i p10 = _mm256_mul_epu32(lo_up, m[0]);
    const __m256i p11 = _mm256_mul_epu32(lo_up, m[1]);
    const __m256i mid = _mm256_add_epi64(
        _mm256_srli_epi64(p00, 32),
        _mm256_add_epi64(_mm256_and_si256(p01, low32),
                         _mm256_and_si256(p10, low32)));
    const __m256i prod_lo = _mm256_or_si256(_mm256_and_si256(p00, low32),
                                            _mm256_slli_epi64(mid, 32));
    const __m256i prod_hi = _mm256_add_epi64(
        _mm256_add_epi64(p11, _mm256_srli_epi64(mid, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(p01, 32),
                         _mm256_srli_epi64(p10, 32)));
    const __m256i cross = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_mul_epu32(*hi, m[0]),
                         _mm256_mul_epu32(*lo, m[2])),
        _mm256_slli_epi64(_mm256_add_epi64(
            _mm256_add_epi64(_mm256_mul_epu32(*hi, m[1]),
                             _mm256_mul_epu32(hi_up, m[0])),
            _mm256_add_epi64(_mm256_mul_epu32(*lo, m[3]),
                             _mm256_mul_epu32(lo_up, m[2]))), 32));
    const __m256i next_lo = _mm256_add_epi64(prod_lo, inc_lo);
    /* AVX2 compares signed only: flip the sign bits for unsigned <. */
    const __m256i sign = _mm256_set1_epi64x((long long)SIGN_MASK);
    const __m256i carry = _mm256_cmpgt_epi64(
        _mm256_xor_si256(inc_lo, sign), _mm256_xor_si256(next_lo, sign));
    *hi = _mm256_sub_epi64(_mm256_add_epi64(_mm256_add_epi64(prod_hi, cross),
                                            inc_hi),
                           carry);  /* carry is -1 where set */
    *lo = next_lo;
}

static inline __attribute__((always_inline, target("avx2"))) void
pcg_lanes_avx2(uint64_t *st, int64_t rbits, void *out, int64_t blocks,
               int kind)
{
    pcg_lanes p;
    pcg_lanes_start(st, 16, &p);
    __m256i hi[4], lo[4];
    for (int v = 0; v < 4; v++) {
        hi[v] = _mm256_loadu_si256((const __m256i *)(p.hi + 4 * v));
        lo[v] = _mm256_loadu_si256((const __m256i *)(p.lo + 4 * v));
    }
    const __m256i m[4] = {
        _mm256_set1_epi64x(PCG_MULT16_LO & 0xFFFFFFFFu),
        _mm256_set1_epi64x(PCG_MULT16_LO >> 32),
        _mm256_set1_epi64x(PCG_MULT16_HI & 0xFFFFFFFFu),
        _mm256_set1_epi64x(PCG_MULT16_HI >> 32)};
    const __m256i inc_hi = _mm256_set1_epi64x((long long)p.jump_inc_hi);
    const __m256i inc_lo = _mm256_set1_epi64x((long long)p.jump_inc_lo);
    const __m128i shift = _mm_cvtsi64_si128(32 - rbits);
    const __m256i bits64 = _mm256_set1_epi64x(64);
    for (int64_t block = 0;;) {
        for (int v = 0; v < 4; v++) {
            /* No variable rotate in AVX2: a shift count of 64 gives 0,
             * so a rotation by 0 keeps the word. */
            const __m256i folded = _mm256_xor_si256(hi[v], lo[v]);
            const __m256i rot = _mm256_srli_epi64(hi[v], 58);
            const __m256i words = _mm256_or_si256(
                _mm256_srlv_epi64(folded, rot),
                _mm256_sllv_epi64(folded, _mm256_sub_epi64(bits64, rot)));
            const __m256i draws = _mm256_srl_epi32(words, shift);
            if (kind == DRAWS_U32) {
                _mm256_storeu_si256((__m256i *)((uint32_t *)out + 8 * v),
                                    draws);
            } else {
                __m256i *at = (__m256i *)((uint64_t *)out + 8 * v);
                _mm256_storeu_si256(at, _mm256_cvtepu32_epi64(
                    _mm256_castsi256_si128(draws)));
                _mm256_storeu_si256(at + 1, _mm256_cvtepu32_epi64(
                    _mm256_extracti128_si256(draws, 1)));
            }
        }
        out = (char *)out + 32 * kind;
        if (++block == blocks)
            break;
        for (int v = 0; v < 4; v++)
            pcg_jump_avx2(&hi[v], &lo[v], m, inc_hi, inc_lo);
    }
    _mm256_storeu_si256((__m256i *)(p.hi + 12), hi[3]);
    _mm256_storeu_si256((__m256i *)(p.lo + 12), lo[3]);
    pcg_lanes_finish(st, p.hi[15], p.lo[15]);
}

static __attribute__((target("avx512f"))) void
pcg_avx512f(uint64_t *st, int64_t rbits, void *out, int64_t blocks,
            int64_t out_bytes)
{
    if (out_bytes == DRAWS_U32)
        pcg_lanes_avx512f(st, rbits, out, blocks, DRAWS_U32);
    else
        pcg_lanes_avx512f(st, rbits, out, blocks, DRAWS_U64);
}

static __attribute__((target("avx2"))) void
pcg_avx2(uint64_t *st, int64_t rbits, void *out, int64_t blocks,
         int64_t out_bytes)
{
    if (out_bytes == DRAWS_U32)
        pcg_lanes_avx2(st, rbits, out, blocks, DRAWS_U32);
    else
        pcg_lanes_avx2(st, rbits, out, blocks, DRAWS_U64);
}
#endif

/* out[0 .. n) = Generator.integers(0, 2**rbits, size=n, dtype=np.uint64)
 * for 1 <= rbits <= 32, advancing the state st in place: each draw is
 * the top rbits bits of one 32-bit half-word of the PCG64 output, low
 * half first.  An odd n parks the last upper half in the half-word
 * cache, and the next call starts with it, as NumPy's next_uint32
 * does.  out holds uint32 (out_bytes 4) or uint64 (8) draws.
 *
 * Every lane gives the same draws and state; `lane` must be one that
 * mac_lanes() reports, or LANE_SCALAR.  A vector lane draws whole
 * blocks of L words; a parked half-word before them, and the words
 * after them (an odd last half-word included), stay on the scalar
 * loop, as does a call too short for one block. */
static void pcg_draws(uint64_t *st, int64_t rbits, void *out, int64_t n,
                      int64_t out_bytes, int64_t lane)
{
    int64_t done = 0;
#if defined(__x86_64__)
    const int64_t lanes = lane == LANE_AVX512F ? 32
                          : lane == LANE_AVX2 ? 16 : 0;
    const int64_t parked = n > 0 && st[PCG_HAS_UINT32] ? 1 : 0;
    const int64_t blocks = lanes ? (n - parked) / (2 * lanes) : 0;
    if (blocks > 0) {
        pcg_scalar(st, rbits, out, parked, out_bytes);
        void *at = (char *)out + parked * out_bytes;
        if (lane == LANE_AVX512F)
            pcg_avx512f(st, rbits, at, blocks, out_bytes);
        else
            pcg_avx2(st, rbits, at, blocks, out_bytes);
        done = parked + 2 * lanes * blocks;
    }
#else
    (void)lane;
#endif
    pcg_scalar(st, rbits, (char *)out + done * out_bytes, n - done,
               out_bytes);
}

/* The draws of a table of streams, one stream or a stack, in one call:
 * for t < streams, stream t's state is the 6 words at states + 6 t.
 * When counts[2 t] (its run entropy words) is nonzero, the state is
 * derived first, as pcg_seed derives it from the next counts[2 t] +
 * counts[2 t + 1] words of `words`; when it is zero, or counts is NULL,
 * the state is already there.  Then the stream's next n draws go to
 * out + t n, on `lane`, and its state advances. */
void mac_pcg_table(const uint32_t *words, const int64_t *counts,
                   uint64_t *states, int64_t streams, int64_t rbits,
                   void *out, int64_t n, int64_t out_bytes, int64_t lane)
{
    for (int64_t t = 0; t < streams; t++) {
        uint64_t *st = states + PCG_WORDS * t;
        const int64_t n_run = counts ? counts[2 * t] : 0;
        if (n_run > 0) {
            const int64_t n_key = counts[2 * t + 1];
            pcg_seed(words, n_run, n_key, st);
            words += n_run + n_key;
        }
        pcg_draws(st, rbits, (char *)out + t * n * out_bytes, n, out_bytes,
                  lane);
    }
}
