/* Native kernels of the batched inference runtime.
 *
 * Six kernels, loaded through ctypes by native.py:
 *
 *   depthwise_f32    float32 depthwise conv + bias + activation;
 *   depthwise_s8     int8 depthwise conv, exact accumulation, then the
 *                    requantization epilogue;
 *   bias_act_f32     the float32 epilogue after a BLAS conv GEMM;
 *   requantize       the int8 epilogue after a BLAS conv GEMM;
 *   dequantize       the float epilogue after an int8 BLAS conv GEMM;
 *   global_pool_f32  the float32 global average pool.
 *
 * Each one replays the per-element arithmetic of the NumPy kernel it stands
 * in for (repro/runtime/kernels.py), so its output is bit-identical.  That
 * holds only when the compiler neither fuses a multiply and an add into an
 * FMA nor reorders float operations: build with -ffp-contract=off and
 * without -ffast-math.
 *
 * Arrays are C-contiguous; native.py checks dtypes and sizes before every
 * call.  The depthwise kernels work one NCHW (image, channel) plane at a
 * time, in a float32 scratch buffer sized for one plane: the
 * (h + 2 * pad) * (w + 2 * pad) zero-haloed input plane, then the kh * kw
 * weights and the oh * ow accumulator plane of the int8 kernel.  They
 * rewrite all they use on every call.
 *
 * Where the compiler targets SSE2 (__SSE2__, the x86-64 baseline, so the
 * build needs no -march flag), the 3x3, stride-1, pad-1 float32 depthwise
 * conv of a 4x4 plane runs as a register tile of 4-lane vectors, with no
 * haloed copy; the vectors do plane()'s and bias_act()'s operations in
 * their order, and the plane loop runs that shape everywhere else.  The
 * other loops are plain C that gcc vectorizes: SSE2 intrinsics for the
 * epilogue and for the pool's 8 accumulators measured no clear gain.
 */
#include <stdint.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

enum { ACT_NONE = 0, ACT_RELU = 1, ACT_RELU6 = 2 };

/* np.maximum(v, 0.0): NaN passes through, and both zeros give +0.0. */
static inline float relu(float v)
{
    return (v > 0.0f || v != v) ? v : 0.0f;
}

/* np.clip(v, 0.0, 6.0): NaN and -0.0 pass through. */
static inline float relu6(float v)
{
    return v < 0.0f ? 0.0f : (v > 6.0f ? 6.0f : v);
}

/* clip(rint(a * multiplier), qmin, qmax) as int8, where a is float32 and
 * the multiply runs in double, as NumPy promotes it.  Clamping before
 * rounding gives the same integer, since the bounds are integers.  The
 * clamped value is at most 127 in magnitude, and for such values adding and
 * subtracting 1.5 * 2**52 is rint: it rounds to an integer, ties to even,
 * in the default rounding mode (np.rint does the same).  This form has no
 * branch, so the loops around it vectorize. */
static inline int8_t requantize_one(float a, double multiplier, double qmin,
                                    double qmax)
{
    double v = (double)a * multiplier;
    v = v < qmin ? qmin : v;
    v = v > qmax ? qmax : v;
    v = (v + 0x1.8p52) - 0x1.8p52;
    return (int8_t)(int32_t)v;
}

/* + bias, then the activation, in one pass over `size` floats of one
 * channel: fused_conv's epilogue.  bias points at the channel's bias, or is
 * NULL; then the pass adds -0.0, which leaves every value as it is, signed
 * zeros included. */
static void bias_act(float *o, long size, const float *bias, long act)
{
    float b = bias ? *bias : -0.0f;
    if (act == ACT_RELU)
        for (long s = 0; s < size; s++)
            o[s] = relu(o[s] + b);
    else if (act == ACT_RELU6)
        for (long s = 0; s < size; s++)
            o[s] = relu6(o[s] + b);
    else if (bias)
        for (long s = 0; s < size; s++)
            o[s] = o[s] + b;
}

/* fused_qconv's epilogue over `size` accumulators of one channel: a + b in
 * float32, then clip(rint(a * m), qmin, qmax). */
static void requantize_plane(const float *a, float b, double m, double lo,
                             double hi, int8_t *o, long size)
{
    for (long s = 0; s < size; s++)
        o[s] = requantize_one(a[s] + b, m, lo, hi);
}

/* Sum the taps of one output plane from the zero-haloed input plane xp of
 * row length wp: the tap (0, 0) product first, then a = a + x * w for the
 * other taps in row-major order, which is the order of the NumPy tap loop.
 * Halo taps multiply the zero padding as the NumPy loop does, so signed
 * zeros come out the same.  Inlined with constant (kh, kw, stride), the
 * tap loop unrolls and the loop along the output row vectorizes. */
static inline void plane(const float *restrict xp, const float *restrict wc,
                         float *restrict o, long wp, long oh, long ow,
                         long kh, long kw, long stride)
{
    for (long oy = 0; oy < oh; oy++) {
        const float *top = xp + oy * stride * wp;
        float *row = o + oy * ow;
        for (long ox = 0; ox < ow; ox++) {
            const float *window = top + ox * stride;
            float a = window[0] * wc[0];
            for (long t = 1; t < kh * kw; t++)
                a = a + window[t / kw * wp + t % kw] * wc[t];
            row[ox] = a;
        }
    }
}

/* plane(), with the shapes of every registry depthwise conv (3x3 at stride
 * 1 or 2) as constants. */
static void sum_taps(const float *xp, const float *wc, float *o, long wp,
                     long oh, long ow, long kh, long kw, long stride)
{
    if (kh == 3 && kw == 3 && stride == 1)
        plane(xp, wc, o, wp, oh, ow, 3, 3, 1);
    else if (kh == 3 && kw == 3 && stride == 2)
        plane(xp, wc, o, wp, oh, ow, 3, 3, 2);
    else
        plane(xp, wc, o, wp, oh, ow, kh, kw, stride);
}

#ifdef __SSE2__
/* relu() and relu6() on four lanes; the zeros they write are +0.0. */
static inline __m128 relu_x4(__m128 v)
{
    __m128 keep = _mm_or_ps(_mm_cmpgt_ps(v, _mm_setzero_ps()),
                            _mm_cmpunord_ps(v, v));
    return _mm_and_ps(keep, v);
}

static inline __m128 relu6_x4(__m128 v)
{
    __m128 six = _mm_set1_ps(6.0f);
    v = _mm_andnot_ps(_mm_cmplt_ps(v, _mm_setzero_ps()), v);
    __m128 over = _mm_cmpgt_ps(v, six);
    return _mm_or_ps(_mm_andnot_ps(over, v), _mm_and_ps(over, six));
}

/* bias_act() on four lanes of a tile: + b unless bias is NULL, then the
 * activation. */
static inline __m128 bias_act_x4(__m128 v, const float *bias, __m128 b,
                                 long act)
{
    if (bias)
        v = _mm_add_ps(v, b);
    if (act == ACT_RELU)
        return relu_x4(v);
    if (act == ACT_RELU6)
        return relu6_x4(v);
    return v;
}

/* Lane i of the result holds lane i - 1 of v (from_left) or lane i + 1
 * (from_right), with a +0.0 shifted in: a row's left and right taps, and
 * the zero halo at its ends. */
static inline __m128 from_left(__m128 v)
{
    return _mm_castsi128_ps(_mm_slli_si128(_mm_castps_si128(v), 4));
}

static inline __m128 from_right(__m128 v)
{
    return _mm_castsi128_ps(_mm_srli_si128(_mm_castps_si128(v), 4));
}

/* The taps of column offset t % 3 of a padded row r. */
static inline __m128 taps(__m128 r, int t)
{
    return t % 3 == 0 ? from_left(r) : t % 3 == 1 ? r : from_right(r);
}

/* plane() and bias_act() of a 3x3, stride-1, pad-1 conv of one 4x4 plane,
 * one output row per vector.  The rows above and below the plane are zero
 * vectors, so every halo tap multiplies a +0.0 as in the haloed copy, and
 * the taps are summed in plane()'s order. */
static inline void tile_4x4(const float *x, const float *wc, float *o,
                            const float *bias, long act)
{
    __m128 w[9], rows[6];
    for (int t = 0; t < 9; t++)
        w[t] = _mm_set1_ps(wc[t]);
    __m128 b = _mm_set1_ps(bias ? *bias : 0.0f);
    rows[0] = rows[5] = _mm_setzero_ps();
    for (int y = 0; y < 4; y++)
        rows[y + 1] = _mm_loadu_ps(x + 4 * y);
    for (int y = 0; y < 4; y++) {
        __m128 a = _mm_mul_ps(taps(rows[y], 0), w[0]);
        for (int t = 1; t < 9; t++)
            a = _mm_add_ps(a, _mm_mul_ps(taps(rows[y + t / 3], t), w[t]));
        _mm_storeu_ps(o + 4 * y, bias_act_x4(a, bias, b, act));
    }
}
#endif

/* x (n, c, h, w), w (c, 1, kh, kw), bias (c) or NULL, out (n, c, oh, ow). */
void depthwise_f32(const float *x, const float *w, const float *bias,
                   float *out, float *scratch, long n, long c, long h,
                   long wd, long kh, long kw, long stride, long pad, long act)
{
#ifdef __SSE2__
    if (h == 4 && wd == 4 && kh == 3 && kw == 3 && stride == 1 && pad == 1) {
        for (long p = 0; p < n * c; p++)
            tile_4x4(x + p * 16, w + p % c * 9, out + p * 16,
                     bias ? bias + p % c : NULL, act);
        return;
    }
#endif
    long hp = h + 2 * pad, wp = wd + 2 * pad;
    long oh = (hp - kh) / stride + 1, ow = (wp - kw) / stride + 1;
    memset(scratch, 0, sizeof(float) * hp * wp);
    for (long p = 0; p < n * c; p++) {
        long ch = p % c;
        float *o = out + p * oh * ow;
        for (long y = 0; y < h; y++)
            memcpy(scratch + (y + pad) * wp + pad, x + (p * h + y) * wd,
                   sizeof(float) * wd);
        sum_taps(scratch, w + ch * kh * kw, o, wp, oh, ow, kh, kw, stride);
        bias_act(o, oh * ow, bias ? bias + ch : NULL, act);
    }
}

/* q (n, c, h, w) int8, w (c, 1, kh, kw) int8, bias (c) int32, multiplier
 * (c) double, out (n, c, oh, ow) int8.  The products of int8 codes are
 * integers of magnitude at most 2**14, and the caller comes here only when
 * the accumulator bound is below 2**24, so every float32 partial sum is an
 * exact integer: the int32 accumulation, and the same float32 value the
 * NumPy path accumulates. */
void depthwise_s8(const int8_t *x, const int8_t *w, const int32_t *bias,
                  const double *multiplier, int8_t *out, float *scratch,
                  long n, long c, long h, long wd, long kh, long kw,
                  long stride, long pad, long qmin, long qmax)
{
    long taps = kh * kw, hp = h + 2 * pad, wp = wd + 2 * pad;
    long oh = (hp - kh) / stride + 1, ow = (wp - kw) / stride + 1;
    float *xp = scratch, *wc = xp + hp * wp, *acc = wc + taps;
    memset(xp, 0, sizeof(float) * hp * wp);
    for (long p = 0; p < n * c; p++) {
        long ch = p % c;
        for (long y = 0; y < h; y++)
            for (long i = 0; i < wd; i++)
                xp[(y + pad) * wp + pad + i] = x[(p * h + y) * wd + i];
        for (long t = 0; t < taps; t++)
            wc[t] = w[ch * taps + t];
        sum_taps(xp, wc, acc, wp, oh, ow, kh, kw, stride);
        requantize_plane(acc, (float)bias[ch], multiplier[ch], qmin, qmax,
                         out + p * oh * ow, oh * ow);
    }
}

/* out (n, c, spatial) float32, bias (c) float32 or NULL: fused_conv's
 * epilogue after its GEMM, in place: + bias, then the activation. */
void bias_act_f32(float *out, const float *bias, long n, long c,
                  long spatial, long act)
{
    for (long p = 0; p < n * c; p++)
        bias_act(out + p * spatial, spatial, bias ? bias + p % c : NULL, act);
}

/* acc (n, c, spatial) float32 exact integers, bias (c) int32, multiplier
 * (c) double, out (n, c, spatial) int8: fused_qconv's epilogue
 * acc += bias (float32), then clip(rint(acc * multiplier), qmin, qmax). */
void requantize(const float *acc, const int32_t *bias,
                const double *multiplier, int8_t *out, long n, long c,
                long spatial, long qmin, long qmax)
{
    for (long p = 0; p < n * c; p++)
        requantize_plane(acc + p * spatial, (float)bias[p % c],
                         multiplier[p % c], qmin, qmax, out + p * spatial,
                         spatial);
}

/* acc (n, c, spatial) float32, dequant (c) double, bias (c) float32 or
 * NULL, out (n, c, spatial) float32: fused_qconv_dequant's epilogue
 * (float)(acc * dequant), then + bias, then the activation. */
void dequantize(const float *acc, const double *dequant, const float *bias,
                float *out, long n, long c, long spatial, long act)
{
    for (long p = 0; p < n * c; p++) {
        const float *a = acc + p * spatial;
        float *o = out + p * spatial;
        double d = dequant[p % c];
        for (long s = 0; s < spatial; s++)
            o[s] = (float)((double)a[s] * d);
        bias_act(o, spatial, bias ? bias + p % c : NULL, act);
    }
}

/* NumPy's pairwise float32 sum of a[0..n), as its add.reduce runs it along
 * a contiguous axis: fewer than 8 elements in order; up to 128 in 8
 * accumulators, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
 * r7)), then the elements past the last whole 8 in order; more than 128 as
 * the sums of two halves split at a multiple of 8. */
static float pairwise_sum(const float *a, long n)
{
    if (n < 8) {
        float s = 0.0f;
        for (long i = 0; i < n; i++)
            s = s + a[i];
        return s;
    }
    if (n > 128) {
        long half = n / 2 - n / 2 % 8;
        return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
    }
    long i = 8;
    float r[8];
    for (int j = 0; j < 8; j++)
        r[j] = a[j];
    for (; i + 8 <= n; i += 8)
        for (int j = 0; j < 8; j++)
            r[j] = r[j] + a[i + j];
    float s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        s = s + a[i];
    return s;
}

/* x (planes, spatial) float32, out (planes) float32: x.mean(axis=(2, 3))
 * of an (n, c, h, w) array, planes = n * c and spatial = h * w.  NumPy
 * adds the pairwise sum to the reduction's initial 0.0 (so a sum of -0.0
 * reads +0.0), then divides by the element count in double. */
void global_pool_f32(const float *x, float *out, long planes, long spatial)
{
    for (long p = 0; p < planes; p++)
        out[p] = (float)((double)(0.0f + pairwise_sum(x + p * spatial,
                                                      spatial))
                         / (double)spatial);
}
