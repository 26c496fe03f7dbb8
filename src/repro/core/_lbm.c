/*
 * Single-pass BGK stream+collide loop: the last rung of the paper's
 * single-node ladder (one fused, vectorised loop over precomputed
 * indices).  Built and loaded by repro/core/native.py, which compiles
 * this file twice: as is (float64, lbm_collide_f64) and with -DLBM_F32
 * (float32, lbm_collide_f32).
 *
 * The loop repeats KernelPlan.collide_into (repro/core/plan.py)
 * operation for operation, in the same order and the same precision,
 * so both produce the same bytes.  That is why the build uses
 * -ffp-contract=off (no fused multiply-adds) and never -ffast-math:
 * every multiply and add below rounds exactly where one of the numpy
 * plan's ufunc calls rounds.  Vectorisation does not change results,
 * because each lane computes one cell with the same scalar operations.
 *
 * Cells are processed in blocks of BLOCK; within a block every stage
 * is a loop over the cells of the block, which the compiler vectorises.
 *
 *   src     post-streaming populations (gather == NULL): row i of a
 *           velocity-major array at src + i * src_i; or, with a gather
 *           table, the flat pre-streaming buffer the table indexes
 *           (pull streaming fused into the same pass).
 *   gather  NULL, or q * n source indices (cell x of row i at
 *           gather[i * n + x]).
 *   out     population i of cell x goes to out[i * out_i + x * out_x]:
 *           (n, 1) is velocity-major, (1, q) cell-major.  out may be
 *           src itself when gather is NULL (a block is read in full
 *           before any of it is written).
 *   p       the plan's constants as doubles, already rounded to the
 *           dtype wherever the numpy plan rounds them (layout: P_*).
 */

#include <stdint.h>

#ifdef LBM_F32
typedef float real;
#define LBM_COLLIDE lbm_collide_f32
#else
typedef double real;
#define LBM_COLLIDE lbm_collide_f64
#endif

#define BLOCK 256
#define MAXD 3

/* p[] layout, shared with native.py. */
#define P_ONE_MINUS 0     /* 1 - omega */
#define P_INV_CS2 1       /* 1 / cs2 */
#define P_HALF_INV2 2     /* 1 / (2 cs2^2) */
#define P_A3 3            /* 1 / (6 cs2^3) */
#define P_NEG_HALF_INV2 4 /* -1 / (2 cs2^2) */
#define P_CELL_SCALE 5    /* -1 / (2 cs2) */
#define P_GAMMA 6         /* (1 - omega/2) / (omega cs2) */
#define P_NFORCE 7        /* number of non-zero force components */
#define P_FORCE 8         /* MAXD triples (axis, F_a, F_a / 2) */
#define P_C (P_FORCE + 3 * MAXD) /* q * d velocity components, then */
                                 /* per velocity (omega w_i, s_cu, s_0) */

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define LBM_CLONES __attribute__((target_clones("avx2", "arch=x86-64-v4", "default")))
#else
#define LBM_CLONES
#endif

LBM_CLONES void LBM_COLLIDE(const real *src, const int64_t *gather, int64_t n,
                            int64_t src_i, real *out, int64_t out_i,
                            int64_t out_x, int32_t q, int32_t d, int32_t order,
                            const double *p)
{
    const real one_minus = (real)p[P_ONE_MINUS];
    const real inv_cs2 = (real)p[P_INV_CS2];
    const real half_inv2 = (real)p[P_HALF_INV2];
    const real a3 = (real)p[P_A3];
    const real neg_half_inv2 = (real)p[P_NEG_HALF_INV2];
    const real cell_scale = (real)p[P_CELL_SCALE];
    const real gamma = (real)p[P_GAMMA];
    const int nforce = (int)p[P_NFORCE];
    const double *c = p + P_C;
    const double *vel = c + q * d;
    real f[q][BLOCK];
    real rho[BLOCK], u[MAXD][BLOCK], cell[BLOCK], a1[BLOCK], uF[BLOCK];
    real cu[BLOCK], term[BLOCK];

    for (int64_t x0 = 0; x0 < n; x0 += BLOCK) {
        /* Load (and pull-stream) the block.  A short last block repeats
         * its last cell, so every stage below runs whole blocks. */
        const int m = (int)(n - x0 < BLOCK ? n - x0 : BLOCK);
        for (int i = 0; i < q; i++) {
            if (gather) {
                const int64_t *g = gather + i * n + x0;
                for (int j = 0; j < m; j++) f[i][j] = src[g[j]];
            } else {
                const real *s = src + i * src_i + x0;
                for (int j = 0; j < m; j++) f[i][j] = s[j];
            }
            for (int j = m; j < BLOCK; j++) f[i][j] = f[i][m - 1];
        }

        /* moments: rho = sum_i f_i; u = (sum_i c_i f_i [+ F/2]) / rho */
        for (int j = 0; j < BLOCK; j++) rho[j] = f[0][j];
        for (int i = 1; i < q; i++)
            for (int j = 0; j < BLOCK; j++) rho[j] += f[i][j];
        for (int a = 0; a < d; a++)
            for (int j = 0; j < BLOCK; j++) u[a][j] = 0;
        for (int i = 0; i < q; i++)
            for (int a = 0; a < d; a++) {
                const real ca = (real)c[i * d + a];
                if (ca != 0)
                    for (int j = 0; j < BLOCK; j++) u[a][j] += f[i][j] * ca;
            }
        for (int k = 0; k < nforce; k++) {
            const int a = (int)p[P_FORCE + 3 * k];
            const real half = (real)p[P_FORCE + 3 * k + 2];
            for (int j = 0; j < BLOCK; j++) u[a][j] += half;
        }
        for (int a = 0; a < d; a++)
            for (int j = 0; j < BLOCK; j++) u[a][j] /= rho[j];
        if (nforce) { /* gamma u.F */
            for (int j = 0; j < BLOCK; j++) uF[j] = 0;
            for (int k = 0; k < nforce; k++) {
                const int a = (int)p[P_FORCE + 3 * k];
                const real force = (real)p[P_FORCE + 3 * k + 1];
                for (int j = 0; j < BLOCK; j++) uF[j] += u[a][j] * force;
            }
            for (int j = 0; j < BLOCK; j++) uF[j] *= gamma;
        }

        /* Hermite coefficients: a0 = 1 - u^2/(2 cs2) in cell, and
         * a1 = 1/cs2 - u^2/(2 cs2^2) at third order */
        if (order >= 2) {
            for (int j = 0; j < BLOCK; j++) cell[j] = 0;
            for (int a = 0; a < d; a++)
                for (int j = 0; j < BLOCK; j++) cell[j] += u[a][j] * u[a][j];
            if (order >= 3)
                for (int j = 0; j < BLOCK; j++)
                    a1[j] = cell[j] * neg_half_inv2 + inv_cs2;
            for (int j = 0; j < BLOCK; j++)
                cell[j] = cell[j] * cell_scale + (real)1;
        }

        /* One velocity at a time: c_i.u, rho T_i (Horner), the Guo
         * source and the relaxation. */
        for (int i = 0; i < q; i++) {
            const real omega_w = (real)vel[3 * i];
            const real s_cu = (real)vel[3 * i + 1];
            const real s_0 = (real)vel[3 * i + 2];
            int has_cu = 0;
            for (int a = 0; a < d; a++) {
                const real ca = (real)c[i * d + a];
                if (ca == 0)
                    continue;
                if (has_cu)
                    for (int j = 0; j < BLOCK; j++) cu[j] += u[a][j] * ca;
                else
                    for (int j = 0; j < BLOCK; j++) cu[j] = u[a][j] * ca;
                has_cu = 1;
            }
            if (!has_cu) {
                if (order >= 2)
                    for (int j = 0; j < BLOCK; j++) term[j] = cell[j] * rho[j];
                else
                    for (int j = 0; j < BLOCK; j++) term[j] = rho[j];
            } else if (order == 1) {
                for (int j = 0; j < BLOCK; j++)
                    term[j] = (cu[j] * inv_cs2 + (real)1) * rho[j];
            } else if (order >= 3) {
                for (int j = 0; j < BLOCK; j++)
                    term[j] = (((cu[j] * a3 + half_inv2) * cu[j] + a1[j]) * cu[j]
                               + cell[j]) * rho[j];
            } else {
                for (int j = 0; j < BLOCK; j++)
                    term[j] = ((cu[j] * half_inv2 + inv_cs2) * cu[j] + cell[j])
                              * rho[j];
            }
            /* f_i = (1 - omega) f_i + omega w_i (rho T_i - gamma u.F)
             *       + s_cu cu + s_0 */
            if (!nforce)
                for (int j = 0; j < BLOCK; j++)
                    f[i][j] = f[i][j] * one_minus + term[j] * omega_w;
            else if (has_cu && s_0 != 0)
                for (int j = 0; j < BLOCK; j++)
                    f[i][j] = f[i][j] * one_minus
                              + ((term[j] - uF[j]) * omega_w + (cu[j] * s_cu + s_0));
            else
                for (int j = 0; j < BLOCK; j++)
                    f[i][j] = f[i][j] * one_minus + (term[j] - uF[j]) * omega_w;
        }

        /* Store the block in the output layout. */
        for (int i = 0; i < q; i++) {
            real *o = out + i * out_i + x0 * out_x;
            if (out_x == 1)
                for (int j = 0; j < m; j++) o[j] = f[i][j];
            else
                for (int j = 0; j < m; j++) o[j * out_x] = f[i][j];
        }
    }
}
