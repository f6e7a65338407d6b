/*
 * Compiled blossom kernel: maximum-cardinality matching, of maximum weight
 * among the perfect matchings when the graph has one.
 *
 * Line-for-line translation of _blossom_py.py into C99 over int64 arrays;
 * keep the two in sync.  See that module for the algorithm notes and
 * conventions (scaled weights, endpoint-encoded mates, greedy
 * initialization, persistent trees, lazy dual updates, the candidate heap).
 * Every unmatched vertex roots one alternating tree for the whole solve;
 * an augmentation dissolves only the two trees it joins (troot names the
 * tree of each labeled top-level blossom, and each root keeps a list of
 * the blossoms it was ever assigned) and the main loop runs until no dual
 * adjustment exists.  Each adjustment pops a binary heap of candidates
 * keyed by the value of cum at which they bind (Blossom V's bookkeeping,
 * Kolmogorov, Math. Prog. Comp. 2009).  Blossom ids, scan order and
 * tie-breaking are the same, so both kernels return the same mates and
 * duals.
 *
 * _blossom_c.py compiles this file with the system C compiler and calls it
 * through ctypes.  The three session entries are its only exports, and
 * every solve goes through them.  A session holds one graph:
 * blossom_session_open() validates the edges, allocates every buffer and
 * builds the endpoints and the CSR adjacency once; each
 * blossom_session_solve() resets the state it uses and solves at new
 * weights; blossom_session_close() frees it all.  A cold solve is a
 * session opened for one solve (_blossom_c.solve_max_weight_matching).
 * Every allocation is checked: a failed one unwinds to the open or solve
 * call through longjmp, which returns BLOSSOM_NOMEM.  A dual adjustment
 * whose edge does not join the labels it should unwinds the same way with
 * BLOSSOM_BROKEN, where the solve would otherwise repeat it forever.  A
 * session stays usable after a failed solve: the next one starts afresh.
 */

#include <setjmp.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Return codes of blossom_session_open() and blossom_session_solve(). */
enum {
    BLOSSOM_OK = 0,
    BLOSSOM_NOMEM = 1,   /* an allocation failed */
    BLOSSOM_INPUT = 2,   /* n < 0, endpoint out of range, self-loop, or |w| too large */
    BLOSSOM_BROKEN = 3   /* an invariant failed: a bug in this kernel */
};

/* Largest |input weight|: weights are scaled by 4, and duals and slacks
 * stay within a small multiple of that, so all arithmetic fits in int64.
 * A heap key is cum plus a slack, half a slack or a blossom dual, so
 * |key| <= |cum| + 2 max|dual| + 2^54: the same terms slack() adds, plus
 * cum.  On graphs at +-MAX_ABS_WEIGHT keys stay below 10 * 2^54 < 2^58;
 * test_kernel_build.py runs such graphs under UBSan. */
#define MAX_ABS_WEIGHT (INT64_C(1) << 52)

enum { L_FREE = 0, L_S = 1, L_T = 2 };

typedef struct {
    i64 *buf;
    i64 length;
    i64 cap;
} Grower;

/* A dual-adjustment candidate: x of the given type binds when cum = t. */
typedef struct {
    i64 t, type, x;
} Cand;

typedef struct {
    i64 n, nedge;
    int used;             /* a solve ran since the lists were last freed */
    i64 *eu;              /* m, copied at open */
    i64 *ev;              /* m */
    i64 *weight;          /* 4x input weights */
    i64 *endpoint;        /* 2m */
    i64 *nb_start;        /* n+1 (CSR adjacency of endpoints) */
    i64 *nb_flat;         /* 2m */
    i64 *mate;            /* n, endpoint index or -1 */
    i64 *label;           /* 2n */
    i64 *labelend;        /* 2n */
    i64 *inblossom;       /* n */
    i64 *blossomparent;   /* 2n */
    i64 *blossombase;     /* 2n */
    i64 *dualvar;         /* 2n */
    i64 *dsgn;            /* 2n, lazy dual sign */
    i64 *dt0;             /* 2n, lazy dual timestamp */
    i64 cum;              /* accumulated dual adjustment */
    unsigned char *allowedge;  /* m */
    i64 **childs;         /* 2n */
    i64 *childs_len;      /* 2n; endps[b] has the same length */
    i64 **endps;          /* 2n */
    i64 **bbe;            /* blossom best-edge lists, 2n */
    i64 *bbe_len;
    i64 *bestedge;        /* 2n */
    i64 *troot;           /* 2n, root vertex of a labeled top-level blossom's tree */
    Grower *members;      /* n, every b whose troot was set to root r; freed once dissolved */
    i64 *seen;            /* 2n, == epoch once repaired in this dissolution */
    i64 epoch;
    i64 *unusedb;         /* stack of free blossom ids */
    i64 unusedb_top;
    Grower queue;
    Grower tops;          /* dissolve's blossoms of the two trees */
    Cand *heap;           /* binary min-heap of candidates */
    i64 heap_len, heap_cap;
    i64 *leafbuf;         /* n */
    i64 *lstack;          /* 2n */
    i64 *bestedgeto;      /* 2n, all -1 between add_blossom calls */
    i64 *touched;         /* 2n, entries of bestedgeto set, in order */
    i64 ntouched;
    i64 *gone;            /* n, vertices of dissolved trees */
    i64 *expandbuf;       /* n, dissolved S-blossoms */
    i64 *patht;           /* 2n (add_blossom path) */
    i64 *endpst;          /* 2n (add_blossom endps) */
    i64 *rott;            /* 2n (scratch) */
    i64 *scanpath;        /* 2n (scan_blossom visited list) */
    jmp_buf fail;         /* where an allocation failure unwinds to */
} Solver;

static void *xalloc(Solver *s, i64 count, size_t size)
{
    void *p;
    if (count < 1)
        count = 1;
    if ((uint64_t)count > SIZE_MAX / size)
        longjmp(s->fail, BLOSSOM_NOMEM);
    p = malloc((size_t)count * size);
    if (p == NULL)
        longjmp(s->fail, BLOSSOM_NOMEM);
    return p;
}

static inline void check(Solver *s, int ok)
{
    if (!ok)
        longjmp(s->fail, BLOSSOM_BROKEN);
}

static void grow_init(Solver *s, Grower *g, i64 cap)
{
    g->buf = xalloc(s, cap, sizeof(i64));
    g->cap = cap;
    g->length = 0;
}

static void grow_push(Solver *s, Grower *g, i64 v)
{
    if (g->length == g->cap) {
        i64 *nb;
        if ((uint64_t)g->cap > SIZE_MAX / (2 * sizeof(i64)))
            longjmp(s->fail, BLOSSOM_NOMEM);
        nb = realloc(g->buf, (size_t)g->cap * 2 * sizeof(i64));
        if (nb == NULL)
            longjmp(s->fail, BLOSSOM_NOMEM);
        g->buf = nb;
        g->cap *= 2;
    }
    g->buf[g->length] = v;
    g->length += 1;
}

/* Free the per-blossom and per-tree lists a solve leaves behind. */
static void free_lists(Solver *s)
{
    i64 i;
    if (!s->used)
        return;
    s->used = 0;
    if (s->childs != NULL && s->endps != NULL && s->bbe != NULL) {
        for (i = 0; i < 2 * s->n; i++) {
            free(s->childs[i]);
            s->childs[i] = NULL;
            free(s->endps[i]);
            s->endps[i] = NULL;
            free(s->bbe[i]);
            s->bbe[i] = NULL;
        }
    }
    if (s->members != NULL) {
        for (i = 0; i < s->n; i++) {
            free(s->members[i].buf);
            s->members[i].buf = NULL;
            s->members[i].length = 0;
        }
    }
}

static void solver_free(Solver *s)
{
    free_lists(s);
    free(s->eu); free(s->ev);
    free(s->weight); free(s->endpoint);
    free(s->nb_start); free(s->nb_flat); free(s->mate);
    free(s->label); free(s->labelend); free(s->inblossom);
    free(s->blossomparent); free(s->blossombase); free(s->dualvar);
    free(s->dsgn); free(s->dt0);
    free(s->allowedge); free(s->childs); free(s->childs_len);
    free(s->endps); free(s->bbe); free(s->bbe_len);
    free(s->bestedge); free(s->troot); free(s->seen); free(s->unusedb);
    free(s->members);
    free(s->queue.buf); free(s->tops.buf); free(s->heap);
    free(s->leafbuf); free(s->lstack); free(s->bestedgeto);
    free(s->touched); free(s->gone); free(s->expandbuf);
    free(s->patht); free(s->endpst); free(s->rott); free(s->scanpath);
    free(s);
}

/* Allocate every array of the session; the pointer tables start all NULL. */
static void solver_alloc(Solver *s)
{
    i64 n = s->n, nedge = s->nedge, i;
    s->eu = xalloc(s, nedge, sizeof(i64));
    s->ev = xalloc(s, nedge, sizeof(i64));
    s->weight = xalloc(s, nedge, sizeof(i64));
    s->endpoint = xalloc(s, 2 * nedge, sizeof(i64));
    s->nb_start = xalloc(s, n + 1, sizeof(i64));
    s->nb_flat = xalloc(s, 2 * nedge, sizeof(i64));
    s->mate = xalloc(s, n, sizeof(i64));
    s->label = xalloc(s, 2 * n, sizeof(i64));
    s->labelend = xalloc(s, 2 * n, sizeof(i64));
    s->inblossom = xalloc(s, n, sizeof(i64));
    s->blossomparent = xalloc(s, 2 * n, sizeof(i64));
    s->blossombase = xalloc(s, 2 * n, sizeof(i64));
    s->dualvar = xalloc(s, 2 * n, sizeof(i64));
    s->dsgn = xalloc(s, 2 * n, sizeof(i64));
    s->dt0 = xalloc(s, 2 * n, sizeof(i64));
    s->allowedge = xalloc(s, nedge, 1);
    s->childs = xalloc(s, 2 * n, sizeof(i64 *));
    s->endps = xalloc(s, 2 * n, sizeof(i64 *));
    s->bbe = xalloc(s, 2 * n, sizeof(i64 *));
    for (i = 0; i < 2 * n; i++) {
        s->childs[i] = NULL;
        s->endps[i] = NULL;
        s->bbe[i] = NULL;
    }
    s->childs_len = xalloc(s, 2 * n, sizeof(i64));
    s->bbe_len = xalloc(s, 2 * n, sizeof(i64));
    s->bestedge = xalloc(s, 2 * n, sizeof(i64));
    s->troot = xalloc(s, 2 * n, sizeof(i64));
    s->members = xalloc(s, n, sizeof(Grower));
    for (i = 0; i < n; i++) {
        s->members[i].buf = NULL;
        s->members[i].length = 0;
    }
    s->seen = xalloc(s, 2 * n, sizeof(i64));
    s->unusedb = xalloc(s, n, sizeof(i64));
    grow_init(s, &s->queue, 4 * n + 16);
    grow_init(s, &s->tops, 64);
    s->heap_cap = 2 * n + 16;
    s->heap = xalloc(s, s->heap_cap, sizeof(Cand));
    s->leafbuf = xalloc(s, n, sizeof(i64));
    s->lstack = xalloc(s, 2 * n, sizeof(i64));
    s->bestedgeto = xalloc(s, 2 * n, sizeof(i64));
    s->touched = xalloc(s, 2 * n, sizeof(i64));
    s->gone = xalloc(s, n, sizeof(i64));
    s->expandbuf = xalloc(s, n, sizeof(i64));
    s->patht = xalloc(s, 2 * n, sizeof(i64));
    s->endpst = xalloc(s, 2 * n, sizeof(i64));
    s->rott = xalloc(s, 2 * n, sizeof(i64));
    s->scanpath = xalloc(s, 2 * n, sizeof(i64));
}

static inline i64 vdual(const Solver *s, i64 v)
{
    return s->dualvar[v] + s->dsgn[v] * (s->cum - s->dt0[v]);
}

static inline void materialize(Solver *s, i64 x, i64 sgn)
{
    s->dualvar[x] = s->dualvar[x] + s->dsgn[x] * (s->cum - s->dt0[x]);
    s->dsgn[x] = sgn;
    s->dt0[x] = s->cum;
}

static inline i64 slack(const Solver *s, i64 k)
{
    return vdual(s, s->eu[k]) + vdual(s, s->ev[k]) - s->weight[k];
}

static inline void least_slack(Solver *s, i64 x, i64 k2)
{
    if (s->bestedge[x] == -1 || slack(s, k2) < slack(s, s->bestedge[x]))
        s->bestedge[x] = k2;
}

static void join_tree(Solver *s, i64 b, i64 r)
{
    check(s, r >= 0);  /* a stale labelend can lead to an unlabeled blossom */
    s->troot[b] = r;
    if (s->members[r].buf == NULL)
        grow_init(s, &s->members[r], 8);
    grow_push(s, &s->members[r], b);
}

/*
 * Dual-adjustment candidates (t, type, x), where t is the value of cum at
 * which the candidate becomes binding:
 *   type 2: free vertex x, whose bestedge leads to an S-vertex;
 *   type 3: top-level S-blossom x, whose bestedge leads to another;
 *   type 4: top-level nontrivial T-blossom x (expand when its dual hits 0).
 * While labels hold, a free-S slack falls by 1 per unit of cum, an S-S
 * slack by 2 and a T-blossom dual by 1, so t stays fixed.  Entries are
 * never removed in place: a pop drops an entry whose condition lapsed, and
 * re-pushes one whose recomputed t differs.  This is exact because a
 * stored key never exceeds its candidate's true key unless bestedge
 * changes, and every such change pushes a new entry (as does an expansion
 * that frees a leaf whose bestedge is still set).  Ties go to the smallest
 * (t, type, x), as heapq orders the twin's tuples.
 */
static inline int cand_less(const Cand *a, const Cand *b)
{
    if (a->t != b->t)
        return a->t < b->t;
    if (a->type != b->type)
        return a->type < b->type;
    return a->x < b->x;
}

static void heap_push(Solver *s, i64 t, i64 type, i64 x)
{
    i64 i, parent;
    Cand c, *nb;
    if (s->heap_len == s->heap_cap) {
        if ((uint64_t)s->heap_cap > SIZE_MAX / (2 * sizeof(Cand)))
            longjmp(s->fail, BLOSSOM_NOMEM);
        nb = realloc(s->heap, (size_t)s->heap_cap * 2 * sizeof(Cand));
        if (nb == NULL)
            longjmp(s->fail, BLOSSOM_NOMEM);
        s->heap = nb;
        s->heap_cap *= 2;
    }
    c.t = t;
    c.type = type;
    c.x = x;
    i = s->heap_len;
    s->heap_len += 1;
    while (i > 0) {
        parent = (i - 1) / 2;
        if (!cand_less(&c, &s->heap[parent]))
            break;
        s->heap[i] = s->heap[parent];
        i = parent;
    }
    s->heap[i] = c;
}

static Cand heap_pop(Solver *s)
{
    Cand top = s->heap[0], last;
    i64 i = 0, child;
    s->heap_len -= 1;
    last = s->heap[s->heap_len];
    for (;;) {
        child = 2 * i + 1;
        if (child >= s->heap_len)
            break;
        if (child + 1 < s->heap_len && cand_less(&s->heap[child + 1], &s->heap[child]))
            child += 1;
        if (!cand_less(&s->heap[child], &last))
            break;
        s->heap[i] = s->heap[child];
        i = child;
    }
    s->heap[i] = last;
    return top;
}

static i64 key(const Solver *s, i64 type, i64 x)
{
    if (type == 2)
        return slack(s, s->bestedge[x]) + s->cum;
    if (type == 3)
        return slack(s, s->bestedge[x]) / 2 + s->cum;  /* S-S slack is even */
    return s->dualvar[x] + s->dsgn[x] * (s->cum - s->dt0[x]) + s->cum;
}

static void push(Solver *s, i64 type, i64 x)
{
    heap_push(s, key(s, type, x), type, x);
}

/* Fill buf with the vertices inside blossom b, in child order. */
static i64 leaves(Solver *s, i64 b, i64 *buf)
{
    i64 cnt = 0, top, x, i;
    if (b < s->n) {
        buf[0] = b;
        return 1;
    }
    s->lstack[0] = b;
    top = 1;
    while (top) {
        top -= 1;
        x = s->lstack[top];
        if (x < s->n) {
            buf[cnt] = x;
            cnt += 1;
        } else {
            for (i = s->childs_len[x] - 1; i >= 0; i--) {
                s->lstack[top] = s->childs[x][i];
                top += 1;
            }
        }
    }
    return cnt;
}

static void assign_label(Solver *s, i64 w, i64 t, i64 p)
{
    i64 b, base, cnt, i;
    for (;;) {
        b = s->inblossom[w];
        s->label[w] = t;
        s->label[b] = t;
        s->labelend[w] = p;
        s->labelend[b] = p;
        s->bestedge[w] = -1;
        s->bestedge[b] = -1;
        join_tree(s, b, p == -1 ? w : s->troot[s->inblossom[s->endpoint[p]]]);
        cnt = leaves(s, b, s->leafbuf);
        if (t == L_S) {
            if (b >= s->n)
                materialize(s, b, 1);
            for (i = 0; i < cnt; i++) {
                materialize(s, s->leafbuf[i], -1);
                grow_push(s, &s->queue, s->leafbuf[i]);
            }
            return;
        }
        /* T-label: continue by labeling the base's mate S. */
        if (b >= s->n) {
            materialize(s, b, -1);
            push(s, 4, b);
        }
        for (i = 0; i < cnt; i++)
            materialize(s, s->leafbuf[i], 1);
        base = s->blossombase[b];
        w = s->endpoint[s->mate[base]];
        p = s->mate[base] ^ 1;
        t = L_S;
    }
}

/* Trace back from v and w; return their trees' common ancestor base
 * vertex, or -1 if the paths hit distinct roots (augmenting). */
static i64 scan_blossom(Solver *s, i64 v, i64 w)
{
    i64 npath = 0, base = -1, b, i, tmp;
    while (v != -1 || w != -1) {
        b = s->inblossom[v];
        if (s->label[b] & 4) {
            base = s->blossombase[b];
            break;
        }
        check(s, s->label[b] == L_S);
        s->scanpath[npath] = b;
        npath += 1;
        s->label[b] = 5;
        check(s, s->labelend[b] == s->mate[s->blossombase[b]]);
        if (s->labelend[b] == -1) {
            v = -1;
        } else {
            v = s->endpoint[s->labelend[b]];
            b = s->inblossom[v];
            check(s, s->label[b] == L_T && s->labelend[b] >= 0);
            v = s->endpoint[s->labelend[b]];
        }
        if (w != -1) {
            tmp = v;
            v = w;
            w = tmp;
        }
    }
    for (i = 0; i < npath; i++)
        s->label[s->scanpath[i]] = L_S;
    return base;
}

static inline void consider_best(Solver *s, i64 b, i64 k2)
{
    i64 i = s->eu[k2], j = s->ev[k2], bj;
    if (s->inblossom[j] == b) {
        j = i;
    }
    bj = s->inblossom[j];
    if (bj == b || s->label[bj] != L_S)
        return;
    if (s->bestedgeto[bj] == -1) {
        s->touched[s->ntouched] = bj;
        s->ntouched += 1;
        s->bestedgeto[bj] = k2;
    } else if (slack(s, k2) < slack(s, s->bestedgeto[bj])) {
        s->bestedgeto[bj] = k2;
    }
}

/* Shrink the odd cycle through edge k and blossom base into a new
 * S-blossom. */
static void add_blossom(Solver *s, i64 base, i64 k)
{
    i64 v = s->eu[k], w = s->ev[k];
    i64 bb = s->inblossom[base];
    i64 bv = s->inblossom[v];
    i64 bw = s->inblossom[w];
    i64 b, nv = 0, nw = 0, nch, i, j, leaf, cnt, nbbe, p;
    i64 *ch, *ep, *lst;
    s->unusedb_top -= 1;
    b = s->unusedb[s->unusedb_top];
    s->blossombase[b] = base;
    s->blossomparent[b] = -1;
    s->blossomparent[bb] = b;
    /* Trace the v side down to the common base. */
    while (bv != bb) {
        s->blossomparent[bv] = b;
        s->patht[nv] = bv;
        s->endpst[nv] = s->labelend[bv];
        nv += 1;
        v = s->endpoint[s->labelend[bv]];
        bv = s->inblossom[v];
    }
    /* Trace the w side (scanpath/rott are free scratch here). */
    while (bw != bb) {
        s->blossomparent[bw] = b;
        s->scanpath[nw] = bw;
        s->rott[nw] = s->labelend[bw] ^ 1;
        nw += 1;
        w = s->endpoint[s->labelend[bw]];
        bw = s->inblossom[w];
    }
    /* childs = [bb] + reversed(v side) + w side;
     * endps = reversed(v side) + [2k] + w side. */
    nch = 1 + nv + nw;
    ch = s->childs[b] = xalloc(s, nch, sizeof(i64));
    ep = s->endps[b] = xalloc(s, nch, sizeof(i64));
    ch[0] = bb;
    for (i = 0; i < nv; i++) {
        ch[1 + i] = s->patht[nv - 1 - i];
        ep[i] = s->endpst[nv - 1 - i];
    }
    ep[nv] = 2 * k;
    for (i = 0; i < nw; i++) {
        ch[1 + nv + i] = s->scanpath[i];
        ep[nv + 1 + i] = s->rott[i];
    }
    s->childs_len[b] = nch;
    s->label[b] = L_S;
    s->labelend[b] = s->labelend[bb];
    join_tree(s, b, s->troot[bb]);
    s->dualvar[b] = 0;
    s->dsgn[b] = 1;
    s->dt0[b] = s->cum;
    /* Children stop being top-level: freeze their blossom duals; every
     * vertex inside is now (or stays) an S-vertex. */
    for (i = 0; i < nch; i++) {
        s->troot[ch[i]] = -1;
        if (ch[i] >= s->n)
            materialize(s, ch[i], 0);
    }
    cnt = leaves(s, b, s->leafbuf);
    for (i = 0; i < cnt; i++) {
        leaf = s->leafbuf[i];
        if (s->label[s->inblossom[leaf]] == L_T)
            grow_push(s, &s->queue, leaf);
        materialize(s, leaf, -1);
        s->inblossom[leaf] = b;
    }
    /* Merge least-slack edges toward other top-level S-blossoms, keyed
     * by the far top-level blossom in the order first reached. */
    s->ntouched = 0;
    for (i = 0; i < nch; i++) {
        bv = ch[i];
        if (s->bbe[bv] == NULL) {
            cnt = leaves(s, bv, s->leafbuf);
            for (j = 0; j < cnt; j++) {
                leaf = s->leafbuf[j];
                for (p = s->nb_start[leaf]; p < s->nb_start[leaf + 1]; p++)
                    consider_best(s, b, s->nb_flat[p] >> 1);
            }
        } else {
            for (j = 0; j < s->bbe_len[bv]; j++)
                consider_best(s, b, s->bbe[bv][j]);
            free(s->bbe[bv]);
            s->bbe[bv] = NULL;
        }
        s->bestedge[bv] = -1;
    }
    nbbe = s->ntouched;
    lst = s->bbe[b] = xalloc(s, nbbe, sizeof(i64));
    for (i = 0; i < nbbe; i++) {
        lst[i] = s->bestedgeto[s->touched[i]];
        s->bestedgeto[s->touched[i]] = -1;
    }
    s->bbe_len[b] = nbbe;
    s->bestedge[b] = -1;
    for (i = 0; i < nbbe; i++)
        least_slack(s, b, lst[i]);
    if (s->bestedge[b] != -1)
        push(s, 3, b);
}

/* Undo blossom b: promote its children to top level.  In a live tree
 * (dissolving = 0) b is a T-blossom with zero dual; the path from its
 * entry child to its base is relabeled.  In a dissolved tree, children
 * with zero dual are expanded too. */
static void expand_blossom(Solver *s, i64 b, int dissolving)
{
    i64 i, j, sb, v, cnt, jstep, endptrick, p, bv, length, idx, mb;
    i64 *ch = s->childs[b];
    i64 nch = s->childs_len[b];
    for (i = 0; i < nch; i++) {
        sb = ch[i];
        s->blossomparent[sb] = -1;
        if (sb < s->n) {
            s->inblossom[sb] = sb;
            materialize(s, sb, 0);
        } else if (dissolving
                   && s->dualvar[sb] + s->dsgn[sb] * (s->cum - s->dt0[sb]) == 0) {
            expand_blossom(s, sb, dissolving);
        } else {
            cnt = leaves(s, sb, s->leafbuf);
            for (j = 0; j < cnt; j++) {
                s->inblossom[s->leafbuf[j]] = sb;
                materialize(s, s->leafbuf[j], 0);
            }
        }
    }
    if (!dissolving && s->label[b] == L_T) {
        length = nch;
        sb = s->inblossom[s->endpoint[s->labelend[b] ^ 1]];  /* entry child */
        j = 0;
        while (ch[j] != sb)
            j += 1;
        if (j & 1) {
            j -= length;
            jstep = 1;
            endptrick = 0;
        } else {
            jstep = -1;
            endptrick = 1;
        }
        /* Walk from the entry child to the base, relabeling alternately. */
        p = s->labelend[b];
        while (j != 0) {
            s->label[s->endpoint[p ^ 1]] = L_FREE;
            idx = j - endptrick;
            if (idx < 0)
                idx += length;
            s->label[s->endpoint[s->endps[b][idx] ^ endptrick ^ 1]] = L_FREE;
            assign_label(s, s->endpoint[p ^ 1], L_T, p);
            s->allowedge[s->endps[b][idx] >> 1] = 1;
            j += jstep;
            idx = j - endptrick;
            if (idx < 0)
                idx += length;
            p = s->endps[b][idx] ^ endptrick;
            s->allowedge[p >> 1] = 1;
            j += jstep;
        }
        /* Relabel the base T-sub-blossom without stepping to its mate. */
        bv = ch[0];
        s->label[s->endpoint[p ^ 1]] = L_T;
        s->label[bv] = L_T;
        s->labelend[s->endpoint[p ^ 1]] = p;
        s->labelend[bv] = p;
        s->bestedge[bv] = -1;
        join_tree(s, bv, s->troot[b]);
        if (bv >= s->n) {
            materialize(s, bv, -1);
            push(s, 4, bv);
        }
        cnt = leaves(s, bv, s->leafbuf);
        for (i = 0; i < cnt; i++)
            materialize(s, s->leafbuf[i], 1);
        /* Continue along the cycle; off-path sub-blossoms become free. */
        j += jstep;
        idx = j >= 0 ? j : j + length;
        while (ch[idx] != sb) {
            bv = ch[idx];
            if (s->label[bv] == L_S) {
                j += jstep;
                idx = j >= 0 ? j : j + length;
                continue;
            }
            cnt = leaves(s, bv, s->leafbuf);
            v = -1;
            for (i = 0; i < cnt; i++) {
                v = s->leafbuf[i];
                if (s->label[v] != L_FREE)
                    break;
            }
            if (v != -1 && s->label[v] != L_FREE) {
                s->label[v] = L_FREE;
                mb = s->mate[s->blossombase[bv]];
                s->label[s->endpoint[mb]] = L_FREE;
                assign_label(s, v, L_T, s->labelend[v]);
            } else {
                /* bv stays free: its leaves' least-slack edges bind again. */
                for (i = 0; i < cnt; i++) {
                    if (s->bestedge[s->leafbuf[i]] != -1)
                        push(s, 2, s->leafbuf[i]);
                }
            }
            j += jstep;
            idx = j >= 0 ? j : j + length;
        }
    }
    s->label[b] = -1;
    s->labelend[b] = -1;
    s->troot[b] = -1;
    free(s->childs[b]);
    s->childs[b] = NULL;
    free(s->endps[b]);
    s->endps[b] = NULL;
    s->blossombase[b] = -1;
    free(s->bbe[b]);
    s->bbe[b] = NULL;
    s->bestedge[b] = -1;
    s->unusedb[s->unusedb_top] = b;
    s->unusedb_top += 1;
}

/* Flip the matching inside blossom b so that vertex v becomes its base
 * (exposed toward the augmenting path). */
static void augment_blossom(Solver *s, i64 b, i64 v)
{
    i64 t = v, i, j, jstep, endptrick, p, length, idx;
    i64 *ch, *ep;
    while (s->blossomparent[t] != b)
        t = s->blossomparent[t];
    if (t >= s->n)
        augment_blossom(s, t, v);
    ch = s->childs[b];
    ep = s->endps[b];
    length = s->childs_len[b];
    i = 0;
    while (ch[i] != t)
        i += 1;
    j = i;
    if (i & 1) {
        j -= length;
        jstep = 1;
        endptrick = 0;
    } else {
        jstep = -1;
        endptrick = 1;
    }
    while (j != 0) {
        j += jstep;
        idx = j >= 0 ? j : j + length;
        t = ch[idx];
        idx = j - endptrick;
        if (idx < 0)
            idx += length;
        p = ep[idx] ^ endptrick;
        if (t >= s->n)
            augment_blossom(s, t, s->endpoint[p]);
        j += jstep;
        idx = j >= 0 ? j : j + length;
        t = ch[idx];
        if (t >= s->n)
            augment_blossom(s, t, s->endpoint[p ^ 1]);
        s->mate[s->endpoint[p]] = p ^ 1;
        s->mate[s->endpoint[p ^ 1]] = p;
    }
    /* Rotate child lists so the entry child becomes the base. */
    if (i != 0) {
        memcpy(s->rott, ch, (size_t)length * sizeof(i64));
        for (j = 0; j < length; j++)
            ch[j] = s->rott[(i + j) % length];
        memcpy(s->rott, ep, (size_t)length * sizeof(i64));
        for (j = 0; j < length; j++)
            ep[j] = s->rott[(i + j) % length];
    }
    s->blossombase[b] = s->blossombase[ch[0]];
}

/* Augment along the path root(v) ... v -- w ... root(w). */
static void augment_matching(Solver *s, i64 k)
{
    i64 sv, p, bs, t, bt, j, side;
    for (side = 0; side < 2; side++) {
        if (side == 0) {
            sv = s->eu[k];
            p = 2 * k + 1;
        } else {
            sv = s->ev[k];
            p = 2 * k;
        }
        for (;;) {
            bs = s->inblossom[sv];
            if (bs >= s->n)
                augment_blossom(s, bs, sv);
            s->mate[sv] = p;
            if (s->labelend[bs] == -1)
                break;
            t = s->endpoint[s->labelend[bs]];
            bt = s->inblossom[t];
            sv = s->endpoint[s->labelend[bt]];
            j = s->endpoint[s->labelend[bt] ^ 1];
            if (bt >= s->n)
                augment_blossom(s, bt, j);
            s->mate[j] = s->labelend[bt];
            p = s->labelend[bt] ^ 1;
        }
    }
}

/* Greedy initialization (see the pure-Python twin). */
static void greedy_start(Solver *s)
{
    i64 n = s->n, v, i, k, p, d, best_p, best_s, sl;
    for (v = 0; v < n; v++) {
        if (s->nb_start[v + 1] > s->nb_start[v]) {
            d = s->weight[s->nb_flat[s->nb_start[v]] >> 1];
            for (p = s->nb_start[v] + 1; p < s->nb_start[v + 1]; p++) {
                k = s->nb_flat[p] >> 1;
                if (s->weight[k] > d)
                    d = s->weight[k];
            }
            s->dualvar[v] = d / 2;  /* d is a multiple of 4: exact */
        }
    }
    for (k = 0; k < s->nedge; k++) {
        i = s->eu[k];
        v = s->ev[k];
        if (s->mate[i] == -1 && s->mate[v] == -1 && slack(s, k) == 0) {
            s->mate[i] = 2 * k + 1;
            s->mate[v] = 2 * k;
        }
    }
    /* Second pass: where an unmatched vertex's least-slack edge leads to
     * another free vertex, drop its dual to tightness and match the pair. */
    for (v = 0; v < n; v++) {
        if (s->mate[v] == -1 && s->nb_start[v + 1] > s->nb_start[v]) {
            best_p = -1;
            best_s = -1;
            for (p = s->nb_start[v]; p < s->nb_start[v + 1]; p++) {
                sl = slack(s, s->nb_flat[p] >> 1);
                if (best_p == -1 || sl < best_s) {
                    best_s = sl;
                    best_p = s->nb_flat[p];
                }
            }
            if (s->mate[s->endpoint[best_p]] == -1) {
                if (best_s > 0)
                    s->dualvar[v] -= best_s;
                k = best_p >> 1;
                s->mate[s->eu[k]] = 2 * k + 1;
                s->mate[s->ev[k]] = 2 * k;
            }
        }
    }
}

/* Recompute the least-slack edge of kept top-level S-blossom b to the
 * other S-blossoms, dropping those of dissolved trees. */
static void refresh_s_bestedge(Solver *s, i64 b)
{
    i64 i, j, k2, nkept, cnt, leaf, p, bj;
    s->bestedge[b] = -1;
    if (s->bbe[b] != NULL) {
        nkept = 0;
        for (i = 0; i < s->bbe_len[b]; i++) {
            k2 = s->bbe[b][i];
            j = s->inblossom[s->eu[k2]] == b ? s->ev[k2] : s->eu[k2];
            if (s->label[s->inblossom[j]] == L_S) {
                s->bbe[b][nkept] = k2;
                nkept += 1;
                least_slack(s, b, k2);
            }
        }
        s->bbe_len[b] = nkept;
    } else {
        cnt = leaves(s, b, s->leafbuf);
        for (i = 0; i < cnt; i++) {
            leaf = s->leafbuf[i];
            for (p = s->nb_start[leaf]; p < s->nb_start[leaf + 1]; p++) {
                bj = s->inblossom[s->endpoint[s->nb_flat[p]]];
                if (bj != b && s->label[bj] == L_S)
                    least_slack(s, b, s->nb_flat[p] >> 1);
            }
        }
    }
    if (s->bestedge[b] != -1)
        push(s, 3, b);
}

/* Drop w's inner T mark if a dissolved vertex set it; then, if w is
 * unlabeled, recompute its least-slack edge to an S-vertex. */
static void refresh_free_bestedge(Solver *s, i64 w)
{
    i64 p, bj;
    if (s->label[w] == L_T
        && s->label[s->inblossom[s->endpoint[s->labelend[w]]]] != L_S) {
        s->label[w] = L_FREE;
        s->labelend[w] = -1;
    }
    if (s->label[w] != L_FREE)
        return;
    s->bestedge[w] = -1;
    for (p = s->nb_start[w]; p < s->nb_start[w + 1]; p++) {
        bj = s->inblossom[s->endpoint[s->nb_flat[p]]];
        if (bj != s->inblossom[w] && s->label[bj] == L_S)
            least_slack(s, w, s->nb_flat[p] >> 1);
    }
    if (s->bestedge[w] != -1)
        push(s, 2, w);
}

static int cmp_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* Unlabel the trees rooted at r1 and r2, just joined by an augmenting
 * path, and repair the kept trees' view of them. */
static void dissolve(Solver *s, i64 r1, i64 r2)
{
    i64 n = s->n, b, x, top, i, j, r, p, v, w, bw, ngone = 0, nexp = 0;
    /* The blossoms troot still assigns to r1 or r2, ascending. */
    s->tops.length = 0;
    for (j = 0; j < 2; j++) {
        r = j == 0 ? r1 : r2;
        for (i = 0; i < s->members[r].length; i++) {
            b = s->members[r].buf[i];
            if (s->troot[b] == r1 || s->troot[b] == r2)
                grow_push(s, &s->tops, b);
        }
        /* A matched root never roots a tree again. */
        free(s->members[r].buf);
        s->members[r].buf = NULL;
        s->members[r].length = 0;
    }
    qsort(s->tops.buf, (size_t)s->tops.length, sizeof(i64), cmp_i64);
    for (j = 0; j < s->tops.length; j++) {
        b = s->tops.buf[j];
        if (j > 0 && b == s->tops.buf[j - 1])
            continue;
        if (b >= n) {
            materialize(s, b, 0);
            if (s->label[b] == L_S) {
                s->expandbuf[nexp] = b;
                nexp += 1;
            }
        }
        s->troot[b] = -1;
        free(s->bbe[b]);
        s->bbe[b] = NULL;
        s->lstack[0] = b;
        top = 1;
        while (top) {
            top -= 1;
            x = s->lstack[top];
            s->label[x] = L_FREE;
            s->labelend[x] = -1;
            s->bestedge[x] = -1;
            if (x < n) {
                materialize(s, x, 0);
                s->gone[ngone] = x;
                ngone += 1;
            } else {
                for (i = 0; i < s->childs_len[x]; i++) {
                    s->lstack[top] = s->childs[x][i];
                    top += 1;
                }
            }
        }
    }
    /* Expand the dissolved S-blossoms whose dual is zero, as the classic
     * algorithm does at the end of each stage. */
    for (i = 0; i < nexp; i++) {
        if (s->dualvar[s->expandbuf[i]] == 0)
            expand_blossom(s, s->expandbuf[i], 1);
    }
    s->epoch += 1;
    for (i = 0; i < ngone; i++) {
        v = s->gone[i];
        for (p = s->nb_start[v]; p < s->nb_start[v + 1]; p++) {
            s->allowedge[s->nb_flat[p] >> 1] = 0;
            w = s->endpoint[s->nb_flat[p]];
            bw = s->inblossom[w];
            if (s->label[bw] == L_S) {
                if (s->seen[w] != s->epoch) {
                    s->seen[w] = s->epoch;
                    grow_push(s, &s->queue, w);
                    if (bw == w)
                        refresh_s_bestedge(s, bw);
                }
                if (bw != w && s->seen[bw] != s->epoch) {
                    s->seen[bw] = s->epoch;
                    refresh_s_bestedge(s, bw);
                }
            } else if (s->seen[w] != s->epoch) {
                s->seen[w] = s->epoch;
                refresh_free_bestedge(s, w);
            }
        }
    }
}

/* Grow, shrink, augment and adjust duals until no adjustment exists. */
static void run(Solver *s)
{
    i64 n = s->n;
    i64 i, v, w, k, p, b, x, base, r1, r2;
    i64 kslack, delta, deltatype, deltaedge, deltablossom;
    int lapsed;
    Cand c;

    /* Every unmatched vertex roots a tree. */
    for (v = 0; v < n; v++) {
        if (s->mate[v] == -1 && s->label[s->inblossom[v]] == L_FREE)
            assign_label(s, v, L_S, -1);
    }

    for (;;) {
        while (s->queue.length > 0) {
            s->queue.length -= 1;
            v = s->queue.buf[s->queue.length];
            if (s->label[s->inblossom[v]] != L_S)
                continue;  /* its tree was dissolved */
            for (p = s->nb_start[v]; p < s->nb_start[v + 1]; p++) {
                k = s->nb_flat[p] >> 1;
                w = s->endpoint[s->nb_flat[p]];
                if (s->inblossom[v] == s->inblossom[w])
                    continue;
                kslack = 0;
                if (!s->allowedge[k]) {
                    kslack = slack(s, k);
                    if (kslack <= 0)
                        s->allowedge[k] = 1;
                }
                if (s->allowedge[k]) {
                    if (s->label[s->inblossom[w]] == L_FREE) {
                        assign_label(s, w, L_T, s->nb_flat[p] ^ 1);
                    } else if (s->label[s->inblossom[w]] == L_S) {
                        base = scan_blossom(s, v, w);
                        if (base >= 0) {
                            add_blossom(s, base, k);
                        } else {
                            r1 = s->troot[s->inblossom[v]];
                            r2 = s->troot[s->inblossom[w]];
                            augment_matching(s, k);
                            dissolve(s, r1, r2);
                            break;
                        }
                    } else if (s->label[w] == L_FREE) {
                        s->label[w] = L_T;
                        s->labelend[w] = s->nb_flat[p] ^ 1;
                    }
                } else if (s->label[s->inblossom[w]] == L_S) {
                    b = s->inblossom[v];
                    if (s->bestedge[b] == -1 || kslack < slack(s, s->bestedge[b])) {
                        s->bestedge[b] = k;
                        push(s, 3, b);
                    }
                } else if (s->label[w] == L_FREE) {
                    if (s->bestedge[w] == -1 || kslack < slack(s, s->bestedge[w])) {
                        s->bestedge[w] = k;
                        push(s, 2, w);
                    }
                }
            }
        }

        /* Queue exhausted: pop the binding dual adjustment. */
        deltatype = -1;
        delta = 0;
        deltaedge = -1;
        deltablossom = -1;
        while (s->heap_len > 0) {
            c = heap_pop(s);
            x = c.x;
            if (c.type == 2)
                lapsed = s->bestedge[x] == -1 || s->label[s->inblossom[x]] != L_FREE;
            else if (c.type == 3)
                lapsed = s->bestedge[x] == -1 || s->blossomparent[x] != -1
                         || s->label[x] != L_S;
            else
                lapsed = s->blossombase[x] < 0 || s->blossomparent[x] != -1
                         || s->label[x] != L_T;
            if (lapsed)
                continue;
            if (key(s, c.type, x) != c.t) {
                push(s, c.type, x);
                continue;
            }
            deltatype = c.type;
            delta = c.t - s->cum;
            if (c.type == 4)
                deltablossom = x;
            else
                deltaedge = s->bestedge[x];
            break;
        }

        if (deltatype == -1)
            break;  /* maximum cardinality reached */

        /* All labeled duals move together; one accumulator records it. */
        s->cum += delta;

        if (deltatype == 2) {
            s->allowedge[deltaedge] = 1;
            i = s->eu[deltaedge];
            if (s->label[s->inblossom[i]] == L_FREE)
                i = s->ev[deltaedge];
            check(s, s->label[s->inblossom[i]] == L_S);
            grow_push(s, &s->queue, i);
        } else if (deltatype == 3) {
            s->allowedge[deltaedge] = 1;
            check(s, s->label[s->inblossom[s->eu[deltaedge]]] == L_S
                     && s->label[s->inblossom[s->ev[deltaedge]]] == L_S);
            grow_push(s, &s->queue, s->eu[deltaedge]);
        } else {
            expand_blossom(s, deltablossom, 0);
        }
    }
}

/* Copy the edges and build the endpoints and the CSR adjacency of remote
 * endpoints (in edge order per vertex): once per session. */
static void build_topology(Solver *s, const i64 *eu, const i64 *ev)
{
    i64 n = s->n, nedge = s->nedge, k, v;
    i64 *fill;
    for (k = 0; k < nedge; k++) {
        s->eu[k] = eu[k];
        s->ev[k] = ev[k];
        s->endpoint[2 * k] = eu[k];
        s->endpoint[2 * k + 1] = ev[k];
    }
    for (v = 0; v < n + 1; v++)
        s->nb_start[v] = 0;
    for (k = 0; k < nedge; k++) {
        s->nb_start[s->eu[k] + 1] += 1;
        s->nb_start[s->ev[k] + 1] += 1;
    }
    for (v = 0; v < n; v++)
        s->nb_start[v + 1] += s->nb_start[v];
    /* leafbuf (n entries) serves as the fill counters here. */
    fill = s->leafbuf;
    for (v = 0; v < n; v++)
        fill[v] = 0;
    for (k = 0; k < nedge; k++) {
        v = s->eu[k];
        s->nb_flat[s->nb_start[v] + fill[v]] = 2 * k + 1;
        fill[v] += 1;
        v = s->ev[k];
        s->nb_flat[s->nb_start[v] + fill[v]] = 2 * k;
        fill[v] += 1;
    }
}

/* Scale the weights and reset the per-solve state: every solve starts from
 * the same state, whatever the previous one left. */
static void setup(Solver *s, const i64 *ew)
{
    i64 n = s->n, nedge = s->nedge, k, v, b, i;
    free_lists(s);
    s->used = 1;
    for (k = 0; k < nedge; k++) {
        s->weight[k] = 4 * ew[k];
        s->allowedge[k] = 0;
    }
    s->queue.length = 0;
    s->tops.length = 0;
    s->heap_len = 0;
    s->cum = 0;
    s->epoch = 0;
    for (v = 0; v < n; v++) {
        s->mate[v] = -1;
        s->inblossom[v] = v;
        s->blossombase[v] = v;
        s->dualvar[v] = 0;
    }
    for (b = n; b < 2 * n; b++) {
        s->blossombase[b] = -1;
        s->dualvar[b] = 0;
    }
    for (i = 0; i < 2 * n; i++) {
        s->label[i] = L_FREE;
        s->labelend[i] = -1;
        s->bestedge[i] = -1;
        s->troot[i] = -1;
        s->seen[i] = 0;
        s->bestedgeto[i] = -1;
        s->blossomparent[i] = -1;
        s->dsgn[i] = 0;
        s->dt0[i] = 0;
        s->childs_len[i] = 0;
        s->bbe_len[i] = 0;
    }
    /* Pops take the top, so fill ascending: ids are handed out from 2n-1
     * downward, matching the pure-Python twin exactly. */
    s->unusedb_top = 0;
    for (b = n; b < 2 * n; b++) {
        s->unusedb[s->unusedb_top] = b;
        s->unusedb_top += 1;
    }
}

/* One solve on the session's buffers; an allocation failure or a failed
 * check longjmps out of it. */
static void solve(Solver *s, const i64 *ew, i64 *mate_out, i64 *duals_out)
{
    i64 v;
    setup(s, ew);
    greedy_start(s);
    run(s);
    /* Materialize final duals; translate endpoint mates to vertices. */
    for (v = 0; v < s->n; v++) {
        s->dualvar[v] += s->dsgn[v] * (s->cum - s->dt0[v]);
        mate_out[v] = s->mate[v] >= 0 ? s->endpoint[s->mate[v]] : -1;
        duals_out[v] = s->dualvar[v];
    }
}

/*
 * Open a session on the graph with n vertices and edges (eu[k], ev[k]),
 * k < nedge; the graph must be simple.  eu and ev are copied.  On
 * BLOSSOM_OK, *out is the session, to be freed by blossom_session_close();
 * otherwise *out is NULL.
 */
int blossom_session_open(i64 n, i64 nedge, const i64 *eu, const i64 *ev,
                         Solver **out)
{
    Solver *s;
    i64 k;

    *out = NULL;
    if (n < 0 || nedge < 0)
        return BLOSSOM_INPUT;
    for (k = 0; k < nedge; k++) {
        if (eu[k] < 0 || eu[k] >= n || ev[k] < 0 || ev[k] >= n || eu[k] == ev[k])
            return BLOSSOM_INPUT;
    }
    s = calloc(1, sizeof *s);
    if (s == NULL)
        return BLOSSOM_NOMEM;
    s->n = n;
    s->nedge = nedge;
    switch (setjmp(s->fail)) {
    case 0:
        solver_alloc(s);
        build_topology(s, eu, ev);
        *out = s;
        return BLOSSOM_OK;
    default:
        solver_free(s);
        return BLOSSOM_NOMEM;
    }
}

/*
 * Maximum-cardinality matching of the session's graph at integer edge
 * weights ew[k], of maximum weight among the perfect matchings when one
 * exists; same contract as _blossom_py.solve_max_weight_matching.
 *
 * On BLOSSOM_OK, mate_out[v] is the partner of v or -1, and duals_out[v]
 * the final vertex dual in internal (4x) units.  Both outputs hold n
 * entries.  A weight outside +-MAX_ABS_WEIGHT gives BLOSSOM_INPUT before
 * anything changes.
 */
int blossom_session_solve(Solver *s, const i64 *ew, i64 *mate_out, i64 *duals_out)
{
    i64 k;

    for (k = 0; k < s->nedge; k++) {
        if (ew[k] > MAX_ABS_WEIGHT || ew[k] < -MAX_ABS_WEIGHT)
            return BLOSSOM_INPUT;
    }
    switch (setjmp(s->fail)) {
    case 0:
        solve(s, ew, mate_out, duals_out);
        return BLOSSOM_OK;
    case BLOSSOM_BROKEN:
        return BLOSSOM_BROKEN;
    default:
        return BLOSSOM_NOMEM;
    }
}

void blossom_session_close(Solver *s)
{
    if (s != NULL)
        solver_free(s);
}
