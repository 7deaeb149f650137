/* Compiled loops of the renormalized quadratic step.

   The single-orbit loop (orbit) makes the numpy step of tensor.py,
   `y = np.outer(x, x).ravel() @ flat` then `x = y / y.sum()`, the way numpy
   does it: the exact products x_i x_j, the product by numpy's own BLAS
   dgemv (passed in as a function pointer and called with the arguments
   numpy's matmul uses), numpy's pairwise summation order, and one division
   per coordinate.  It keeps the state and the running sum at each of a list
   of step marks: tensor.run is one mark, run_collect and iterate one mark
   per recorded step, and cesaro one per checkpoint with the sums.

   The batched loop (batch) makes the step of tensor.apply_batch for any
   number of rows, `np.einsum('ijk,nj,ni->nk', p, xs, xs)` then
   `ys / ys.sum(axis=1)`: each y_k starts at 0.0 and adds
   (p[i,j,k] * x_j) * x_i with i as the outer and j as the inner index,
   then the same pairwise sum and division.

   The Newton loop (newton) makes one start of analysis._newton_periodic
   for the map itself (n_compose == 1): the residual with the step above,
   the Jacobian 2 * sum_i p[i,j,k] x_i summed in order of increasing i as
   tensor.jacobian's einsum does, the reduced system solved by numpy's own
   LAPACK dgesv (passed in as a function pointer) on a column-major copy as
   np.linalg.solve does, the trust-region clip, the projection, the damped
   Picard sweeps and the polish.  Where numpy would call lstsq it stops and
   hands the start back to numpy, which may call it again from the next
   search iteration.

   No result depends on an order chosen here, so every loop reproduces its
   numpy loop bit for bit.  Build with -O2 -ffp-contract=off and without
   -ffast-math or -march, so that nothing is fused or reordered.  The caller
   checks that m <= MAX_M, that the arrays are C-contiguous doubles (the
   marks int64s, increasing from 0 or later) and that n_steps >= 0. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define MAX_M 64

/* cblas_dgemv with 64-bit integers (numpy's scipy-openblas64 build) */
typedef void (*dgemv_fn)(int order, int trans, int64_t rows, int64_t cols,
                         double alpha, const double *a, int64_t lda,
                         const double *x, int64_t incx, double beta,
                         double *y, int64_t incy);

enum { CBLAS_ROW_MAJOR = 101, CBLAS_TRANS = 112 };

/* LAPACK dgesv with 64-bit integers (numpy's scipy-openblas64 build) */
typedef void (*dgesv_fn)(const int64_t *n, const int64_t *nrhs, double *a,
                         const int64_t *lda, int64_t *ipiv, double *b,
                         const int64_t *ldb, int64_t *info);

/* numpy's pairwise sum: sequential below 8 terms, eight accumulators up to
   128 terms, halving above that.  The short case is inlined into every
   caller; the rest is a call. */
static double pairwise_sum_blocks(const double *a, int64_t n);

static inline double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    return pairwise_sum_blocks(a, n);
}

static double pairwise_sum_blocks(const double *a, int64_t n)
{
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* x <- y / y.sum() */
static inline void renormalize(const double *y, int64_t m, double *x)
{
    double s = 0.0 + pairwise_sum(y, m);  /* add.reduce starts from its identity */
    for (int64_t k = 0; k < m; k++)
        x[k] = y[k] / s;
}

static void step(dgemv_fn gemv, const double *flat, int64_t m, double *x)
{
    double outer[MAX_M * MAX_M], y[MAX_M];
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++)
            outer[i * m + j] = x[i] * x[j];
    /* vector @ matrix: numpy's matmul calls dgemv on the transposed
       row-major (m*m, m) matrix */
    gemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, m * m, m, 1.0, flat, m, outer, 1, 0.0, y, 1);
    renormalize(y, m, x);
}

/* For each mark c: states[c] = x^(marks[c]) and, unless sums is NULL,
   sums[c] = x^(0) + ... + x^(marks[c] - 1).  Marks are increasing and
   start at 0 or later; x is left at x^(marks[n_marks - 1]). */
void orbit(dgemv_fn gemv, const double *flat, int64_t m, double *x,
           const int64_t *marks, int64_t n_marks, double *states, double *sums)
{
    double acc[MAX_M] = {0.0};
    int64_t n = 0;
    for (int64_t c = 0; c < n_marks; c++) {
        for (; n < marks[c]; n++) {
            for (int64_t k = 0; k < m; k++)
                acc[k] += x[k];
            step(gemv, flat, m, x);
        }
        memcpy(states + c * m, x, m * sizeof *x);
        if (sums)
            memcpy(sums + c * m, acc, m * sizeof *acc);
    }
}

/* y[k .. k + w - 1], each summed over (i, j) in einsum's order.  w is a
   constant at every call, so the w sums stay in registers. */
static inline void contract(const double *p, int64_t m, const double *x,
                            int64_t k, int w, double *y)
{
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    const double *q = p + k;
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++, q += m)
            for (int b = 0; b < w; b++)
                acc[b] += (q[b] * x[j]) * x[i];
    for (int b = 0; b < w; b++)
        y[k + b] = acc[b];
}

/* Each of the rows of the (rows, m) array xs <- its x^(n_steps), one row
   at a time so that its state stays in L1.  p is the (m, m, m) tensor. */
void batch(const double *p, int64_t m, double *xs, int64_t rows, int64_t n_steps)
{
    double y[MAX_M];
    for (int64_t r = 0; r < rows; r++) {
        double *x = xs + r * m;
        for (int64_t n = 0; n < n_steps; n++) {
            int64_t k = 0;
            for (; k + 4 <= m; k += 4)
                contract(p, m, x, k, 4, y);
            for (; k < m; k++)
                contract(p, m, x, k, 1, y);
            renormalize(y, m, x);
        }
    }
}

/* --- Newton fixed-point search ---------------------------------------------- */

/* Phases of a start, as in analysis.py: the kernel returns the phase at
   which numpy has to go on, or NEWTON_DONE. */
enum { NEWTON_SEARCH, NEWTON_CORRECT, NEWTON_DONE };

enum { DAMPED_SWEEPS = 500, POLISH_STEPS = 2 };

/* np.max(np.abs(a)): NaN wins */
static double max_abs(const double *a, int64_t n)
{
    double res = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double v = fabs(a[i]);
        if (isnan(v))
            return v;
        if (v > res)
            res = v;
    }
    return res;
}

static int all_finite(const double *a, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        if (!isfinite(a[i]))
            return 0;
    return 1;
}

/* x <- _project(v): np.maximum(v, 0.0) (NaN kept, -0.0 made 0.0), then
   divided by its sum, or the barycentre if that sum is not positive */
static void project(const double *v, int64_t m, double *x)
{
    double y[MAX_M], s;
    for (int64_t k = 0; k < m; k++)
        y[k] = (v[k] > 0.0 || isnan(v[k])) ? v[k] : 0.0;
    s = 0.0 + pairwise_sum(y, m);
    if (s <= 0.0) {
        for (int64_t k = 0; k < m; k++)
            y[k] = 1.0 / (double)m;
        s = 1.0;
    }
    for (int64_t k = 0; k < m; k++)
        x[k] = y[k] / s;
}

/* r <- V(x) - x; returns np.max(np.abs(r)) */
static double residual(dgemv_fn gemv, const double *flat, int64_t m,
                       const double *x, double *r)
{
    memcpy(r, x, m * sizeof *x);
    step(gemv, flat, m, r);
    for (int64_t k = 0; k < m; k++)
        r[k] -= x[k];
    return max_abs(r, m);
}

/* dy <- the solution of the reduced Newton system at x, whose residual is
   r: (J - I - J[:, m-1])[:m-1, :m-1] dy = -r[:m-1], J[k, j] the partial
   derivative of coordinate k in x_j.  Returns 0, or 1 for a singular
   system (np.linalg.solve raises LinAlgError exactly when dgesv's info is
   positive). */
static int newton_step(dgesv_fn gesv, const double *p, int64_t m,
                       const double *x, const double *r, double *dy)
{
    double jac[MAX_M * MAX_M], a[MAX_M * MAX_M];
    int64_t n = m - 1, one = 1, ipiv[MAX_M], info;
    /* jacobian: 0.0, then + p[i,j,k] * x_i for increasing i, then * 2 */
    memset(jac, 0, m * m * sizeof *jac);
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < m; j++)
            for (int64_t k = 0; k < m; k++)
                jac[k * m + j] += p[(i * m + j) * m + k] * x[i];
    for (int64_t e = 0; e < m * m; e++)
        jac[e] = 2.0 * jac[e];
    /* (J - eye) - last column, stored column-major for dgesv */
    for (int64_t k = 0; k < n; k++) {
        for (int64_t j = 0; j < n; j++)
            a[j * n + k] = (jac[k * m + j] - (j == k ? 1.0 : 0.0)) - jac[k * m + n];
        dy[k] = -r[k];
    }
    gesv(&n, &one, a, &n, ipiv, dy, &n, &info);
    return info > 0;
}

/* x <- _project(x + append(dy, -dy.sum())) */
static void newton_update(int64_t m, double *x, const double *dy)
{
    double v[MAX_M];
    for (int64_t k = 0; k < m - 1; k++)
        v[k] = x[k] + dy[k];
    v[m - 1] = x[m - 1] + -(0.0 + pairwise_sum(dy, m - 1));
    project(v, m, x);
}

/* One start of analysis._newton_periodic with n_compose == 1, from the
   projected start x (advanced in place) at search iteration first.  p is
   the (m, m, m) tensor, which is also the flat (m*m, m) array of the step.
   Returns NEWTON_DONE with the final residual in *rmax, or the phase in
   which numpy would call lstsq: NEWTON_SEARCH with the iteration whose
   system is singular in *at, or NEWTON_CORRECT after the damped sweeps. */
int newton(dgemv_fn gemv, dgesv_fn gesv, const double *p, int64_t m, double *x,
           double tol, int64_t first, int64_t max_iter, int64_t *at, double *rmax)
{
    const double *flat = p;
    double r[MAX_M], dy[MAX_M], v[MAX_M];
    int64_t it;
    for (it = first; it < max_iter; it++) {
        if (residual(gemv, flat, m, x, r) < tol)
            break;
        if (newton_step(gesv, p, m, x, r, dy)) {
            *at = it;
            return NEWTON_SEARCH;
        }
        if (!all_finite(dy, m - 1))
            break;
        double size = max_abs(dy, m - 1);
        if (size > 0.5) {  /* trust region */
            double scale = 0.5 / size;
            for (int64_t k = 0; k < m - 1; k++)
                dy[k] *= scale;
        }
        newton_update(m, x, dy);
    }
    if (it >= max_iter) {  /* the search ran out */
        for (int n = 0; n < DAMPED_SWEEPS; n++) {
            memcpy(v, x, m * sizeof *x);
            step(gemv, flat, m, v);
            for (int64_t k = 0; k < m; k++)
                v[k] = 0.5 * x[k] + 0.5 * v[k];
            project(v, m, x);
        }
        if (!(residual(gemv, flat, m, x, r) < tol))
            return NEWTON_CORRECT;
    }
    for (int n = 0; n < POLISH_STEPS; n++) {
        if (residual(gemv, flat, m, x, r) == 0.0)
            break;
        if (newton_step(gesv, p, m, x, r, dy) || !all_finite(dy, m - 1)
            || max_abs(dy, m - 1) > 1e-3)
            break;
        newton_update(m, x, dy);
    }
    *rmax = residual(gemv, flat, m, x, r);
    return NEWTON_DONE;
}
