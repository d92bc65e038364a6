/* Native kernels of the batched inference runtime.
 *
 * Five kernels, loaded through ctypes by native.py:
 *
 *   depthwise_f32  float32 depthwise conv + bias + activation;
 *   depthwise_s8   int8 depthwise conv, exact accumulation, then the
 *                  requantization epilogue;
 *   bias_act_f32   the float32 epilogue after a BLAS conv GEMM;
 *   requantize     the int8 epilogue after a BLAS conv GEMM;
 *   dequantize     the float epilogue after an int8 BLAS conv GEMM.
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
 */
#include <stdint.h>
#include <string.h>

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

/* + bias, then the activation, over `size` floats of one channel:
 * fused_conv's epilogue.  bias points at the channel's bias, or is NULL. */
static void bias_act(float *o, long size, const float *bias, long act)
{
    if (bias) {
        float b = *bias;
        for (long s = 0; s < size; s++)
            o[s] = o[s] + b;
    }
    if (act == ACT_RELU)
        for (long s = 0; s < size; s++)
            o[s] = relu(o[s]);
    else if (act == ACT_RELU6)
        for (long s = 0; s < size; s++)
            o[s] = relu6(o[s]);
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

/* x (n, c, h, w), w (c, 1, kh, kw), bias (c) or NULL, out (n, c, oh, ow). */
void depthwise_f32(const float *x, const float *w, const float *bias,
                   float *out, float *scratch, long n, long c, long h,
                   long wd, long kh, long kw, long stride, long pad, long act)
{
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
