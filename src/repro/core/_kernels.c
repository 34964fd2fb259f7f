/* The compiled kernels: the cuckoo displacement walk, the protocol drain and
 * the trace front end that feeds it.
 *
 * drain() runs a chunk of accesses through the MESI protocol in trace order,
 * over every directory slice the simulator builds (a Cuckoo, Sparse or
 * Skewed table, and the Cuckoo table with an overflow stash); walk() is the
 * displacement walk of CuckooHashTable.walk, which the drain runs as a plain
 * C function.  They are the simulator's only definitions of both: the
 * handler loop and the Python walk they are tested against live in
 * tests/coherence/reference_protocol.py.  synthetic() builds a synthetic
 * workload's chunk from its RNG draws (SyntheticWorkload), resolving each
 * access's Zipf rank as zipf() does (ZipfSampler), and translate() maps a
 * trace slice through the first-touch page table (PageMapper) into the
 * drain's trace.  repro.core.native builds this file on first import.
 *
 * Both run over typed buffers the Python objects own and read through the
 * buffer protocol, so Python and C share one state and no Python object is
 * touched per access:
 *
 *   a cache    int64 tags (-1 vacant) and LRU stamps, uint8 MESI states and
 *              dirty bits, one per frame [set * ways + way], and an int64
 *              counts row (K_*);
 *   a table    int64 keys (-1 vacant), uint64 sharer masks and, under LRU,
 *              int64 stamps, one per slot [way * sets + index], an int64
 *              meta row (M_*) and its hash descriptor (H_*);
 *   a slice    its table, its DirectoryStats row (S_*, then the attempt
 *              histogram), its stash (int64 keys, uint64 masks, oldest
 *              first and packed, -1 after the last) and its parks counter;
 *   a system   its caches, shared-L2 banks and slices, the mesh hop table
 *              and the traffic row (N_*).
 *
 * machine() takes a system's buffers once and returns a capsule holding
 * them; drain() then needs only the capsule and the chunk's five-row trace.
 * Every buffer's item type and length is checked when it is taken
 * (TypeError, ValueError), and every trace value and table meta value before
 * a chunk runs (IndexError, with nothing written).  Only C-API calls of
 * Python 3.9 are used.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef long long i64;
typedef unsigned long long u64;

/* The vacant-slot sentinel of the key and tag buffers. */
#define EMPTY -1LL
#define MAX_WAYS 64

#define TRY(call) do { if ((call) < 0) return -1; } while (0)

/* The MESI codes of repro.cache.cache (STATE_*). */
enum { INVALID, SHARED, EXCLUSIVE, MODIFIED };
/* A cache's counts row (repro.cache.cache). */
enum { K_HITS, K_MISSES, K_EVICTIONS, K_DIRTY_EVICTIONS, K_INVALIDATIONS, K_CLOCK, K_COLUMNS };
/* A table's meta row (repro.core.cuckoo_hash). */
enum { M_SIZE, M_START_WAY, M_CLOCK, M_COLUMNS };
/* A DirectoryStats row (repro.directories.base), then the histogram. */
enum { S_LOOKUPS, S_LOOKUP_HITS, S_LOOKUP_MISSES, S_INSERTIONS, S_ATTEMPTS, S_ADDITIONS,
       S_REMOVALS, S_ENTRY_REMOVALS, S_INVALIDATE_ALL, S_FORCED, S_FORCED_MESSAGES,
       S_BITS_READ, S_BITS_WRITTEN, S_HISTOGRAM };
/* The traffic row: one count per MessageType, in its order, then hops. */
enum { N_GET_S, N_GET_M, N_PUT_S, N_PUT_M, N_INV, N_ACK, N_DATA, N_FWD, N_HOPS, N_COLUMNS };
/* The per-class counts drain() returns. */
enum { C_HITS, C_UPGRADES, C_READ_DIRHIT, C_READ_INSERT, C_WRITE_MISS, C_WALKS, C_COLUMNS };
/* A hash descriptor (HashFamily.descriptor): kind, ways, sets, index bits,
 * offset bits, then one seed per way. */
enum { H_KIND, H_WAYS, H_SETS, H_BITS, H_OFFSET, H_SEEDS };
enum { HASH_MODULO, HASH_SKEWING, HASH_STRONG };

/* ---- typed buffers ------------------------------------------------------- */

/* obj's buffer into *view, checked: C-contiguous (and writable unless
 * flags is READ), of int64 ('q'), uint64 ('Q'), float64 ('d') or one-byte
 * ('B': uint8 or bool) items, and of length items (any when length < 0). */
#define READ 0
#define WRITE PyBUF_WRITABLE
static void *
typed(PyObject *obj, char type, Py_ssize_t length, Py_buffer *view, int flags)
{
    view->obj = NULL;
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0)
        return NULL;
    const char *format = view->format ? view->format : "B";
    char code = format[strlen(format) - 1];
    int ok = format[0] != '>' && format[0] != '!' && (type == 'B'
        ? view->itemsize == 1 && (code == 'B' || code == '?')
        : view->itemsize == 8 && (code == type || (type != 'd' && code == type - 'q' + 'l')));
    static i64 no_items[1];  /* an empty buffer's address, never read */
    if (ok && (length < 0 || view->len / view->itemsize == length))
        return view->buf ? view->buf : no_items;
    if (ok)
        PyErr_Format(PyExc_ValueError, "a buffer of %zd items where %zd are expected",
                     view->len / view->itemsize, length);
    else
        PyErr_Format(PyExc_TypeError, "expected a contiguous buffer of %s", type == 'q'
                     ? "int64" : type == 'Q' ? "uint64" : type == 'd' ? "float64" : "uint8");
    PyBuffer_Release(view);
    return NULL;
}

static Py_ssize_t
items(const Py_buffer *view)
{
    return view->len / view->itemsize;
}

/* Release every view taken (typed() leaves a failed one's obj NULL). */
static void
release(Py_buffer *views, int count)
{
    for (int i = 0; i < count; i++)
        if (views[i].obj != NULL)
            PyBuffer_Release(&views[i]);
}

/* ---- hashing ------------------------------------------------------------- */

typedef struct {
    int kind, bits, offset;
    u64 sets;
    const u64 *seeds;
} Hash;

static u64
shr(u64 value, int shift)
{
    return shift < 64 ? value >> shift : 0;
}

/* times applications of the skewing permutation sigma (skew_sigma). */
static u64
sigma(u64 value, int bits, int times)
{
    u64 mask = shr(~0ULL, 64 - bits), msb;
    for (; times > 0; times--) {
        msb = (value >> (bits - 1)) & 1;
        value = ((value << 1) | msb) & mask;
        if (bits >= 2)
            value ^= msb << 1;
    }
    return value;
}

/* The candidate index of key in way, in [0, sets). */
static Py_ssize_t
hash_index(const Hash *h, Py_ssize_t way, i64 key)
{
    u64 value = (u64)key;
    if (h->kind == HASH_SKEWING) {
        if (h->bits == 0)
            return 0;
        u64 mask = h->sets - 1, block = shr(value, h->offset);
        return (Py_ssize_t)(sigma(block & mask, h->bits, (int)way)
                            ^ sigma(shr(block, h->bits) & mask, h->bits, (int)way / 2)
                            ^ (shr(block, 2 * h->bits) & mask));
    }
    if (h->kind == HASH_STRONG) {  /* mix64(key ^ seed), SplitMix64's finaliser */
        value ^= h->seeds[way];
        value ^= value >> 30;
        value *= 0xBF58476D1CE4E5B9ULL;
        value ^= value >> 27;
        value *= 0x94D049BB133111EBULL;
        value ^= value >> 31;
    }
    return (Py_ssize_t)(value % h->sets);
}

/* A descriptor, checked; *ways and *sets are its geometry. */
static int
parse_hash(const Py_buffer *view, Hash *h, Py_ssize_t *ways, Py_ssize_t *sets)
{
    const u64 *d = view->buf;
    if (items(view) < H_SEEDS || d[H_WAYS] < 1 || d[H_WAYS] > MAX_WAYS
            || items(view) != H_SEEDS + (Py_ssize_t)d[H_WAYS] || d[H_SETS] < 1
            || d[H_SETS] > (u64)PY_SSIZE_T_MAX / MAX_WAYS || d[H_KIND] > HASH_STRONG
            || (d[H_KIND] == HASH_SKEWING
                && (d[H_BITS] > 62 || d[H_SETS] != 1ULL << d[H_BITS] || d[H_OFFSET] > 63))) {
        PyErr_SetString(PyExc_ValueError, "not a hash descriptor");
        return -1;
    }
    *h = (Hash){.kind = (int)d[H_KIND], .bits = (int)d[H_BITS], .offset = (int)d[H_OFFSET],
                .sets = d[H_SETS], .seeds = d + H_SEEDS};
    *ways = (Py_ssize_t)d[H_WAYS];
    *sets = (Py_ssize_t)d[H_SETS];
    return 0;
}

PyDoc_STRVAR(indices_doc,
"indices(descriptor, keys, out)\n"
"\n"
"Write every key's candidate index in every way into out, a (ways, n) int64\n"
"buffer, with the drain's hashing (HashFamily.descriptor).");

static PyObject *
indices(PyObject *module, PyObject *args)
{
    PyObject *objs[3], *result = NULL;
    Py_buffer views[3] = {{0}};
    Py_ssize_t ways, sets, n, way, i;
    Hash h;
    (void)module;
    if (!PyArg_ParseTuple(args, "OOO:indices", &objs[0], &objs[1], &objs[2])
            || typed(objs[0], 'Q', -1, &views[0], WRITE) == NULL)
        return NULL;
    if (parse_hash(&views[0], &h, &ways, &sets) < 0
            || typed(objs[1], 'q', -1, &views[1], WRITE) == NULL)
        goto done;
    n = items(&views[1]);
    if (typed(objs[2], 'q', ways * n, &views[2], WRITE) == NULL)
        goto done;
    const i64 *keys = views[1].buf;
    i64 *out = views[2].buf;
    for (i = 0; i < n; i++)
        if (keys[i] < 0) {
            PyErr_SetString(PyExc_IndexError, "a negative key");
            goto done;
        }
    for (way = 0; way < ways; way++)
        for (i = 0; i < n; i++)
            out[way * n + i] = hash_index(&h, way, keys[i]);
    result = Py_None;
    Py_INCREF(result);
done:
    release(views, 3);
    return result;
}

/* ---- the machine ----------------------------------------------------------- */

typedef struct {  /* a tracked cache or a shared-L2 bank */
    i64 *tags, *stamps, *counts;
    unsigned char *states, *dirty;
    Py_ssize_t sets, ways;
    int masked;  /* sets is a power of two: a block's set is b & (sets - 1) */
} Cache;

typedef struct {  /* a directory slice: its table, statistics and stash */
    i64 *keys, *stamps, *meta, *stats, *stash_keys, *parks;  /* stamps NULL: cuckoo */
    u64 *masks, *stash_masks;
    Hash hash;
    Py_ssize_t ways, sets, max_attempts, stash_capacity;
    i64 tag_bits, payload_bits, entry_bits;  /* a lookup's tags, a sharer update, an entry */
} Table;

typedef struct {
    Cache *caches, *banks;  /* banks is NULL without a shared L2 */
    Table *tables;
    Py_ssize_t num_caches, num_tables, cores, core_shift, slice_shift, num_views;
    const i64 *hops;  /* [from][to] */
    i64 *traffic;     /* NULL when traffic is not tracked */
    const i64 *trace; /* the chunk's [row][access] */
    Py_ssize_t n;
    i64 classes[C_COLUMNS];
    Py_buffer *views;
} Machine;

static const char machine_name[] = "repro.core.native.machine";

static void
free_machine(Machine *m)
{
    for (Py_ssize_t i = 0; i < m->num_views; i++)
        PyBuffer_Release(&m->views[i]);
    PyMem_Free(m->views);
    PyMem_Free(m->caches);
    PyMem_Free(m->banks);
    PyMem_Free(m->tables);
    PyMem_Free(m);
}

static void
machine_destructor(PyObject *capsule)
{
    Machine *m = PyCapsule_GetPointer(capsule, machine_name);
    if (m != NULL)
        free_machine(m);
}

/* obj's buffer, held by the machine until it is freed. */
static void *
hold(Machine *m, PyObject *obj, char type, Py_ssize_t length)
{
    void *buf = typed(obj, type, length, &m->views[m->num_views], WRITE);
    if (buf != NULL)
        m->num_views++;
    return buf;
}

/* A cache's (tags, stamps, states, dirty, counts, ways). */
static int
parse_cache(Machine *m, PyObject *spec, Cache *k)
{
    PyObject *o[5];
    if (!PyTuple_Check(spec) || !PyArg_ParseTuple(spec, "OOOOOn", &o[0], &o[1], &o[2], &o[3],
                                                  &o[4], &k->ways)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a cache's state must be a tuple");
        return -1;
    }
    if ((k->tags = hold(m, o[0], 'q', -1)) == NULL)
        return -1;
    Py_ssize_t frames = items(&m->views[m->num_views - 1]);
    if (k->ways < 1 || frames < 1 || frames % k->ways) {
        PyErr_SetString(PyExc_ValueError, "a cache's frames do not fill its sets");
        return -1;
    }
    k->sets = frames / k->ways;
    k->masked = (k->sets & (k->sets - 1)) == 0;
    return (k->stamps = hold(m, o[1], 'q', frames)) && (k->states = hold(m, o[2], 'B', frames))
        && (k->dirty = hold(m, o[3], 'B', frames)) && (k->counts = hold(m, o[4], 'q', K_COLUMNS))
        ? 0 : -1;
}

/* A table's (keys, masks, stamps or None, meta, descriptor, max attempts). */
static int
parse_table(Machine *m, PyObject *spec, Table *t)
{
    PyObject *o[5];
    if (!PyTuple_Check(spec) || !PyArg_ParseTuple(spec, "OOOOOn", &o[0], &o[1], &o[2], &o[3],
                                                  &o[4], &t->max_attempts)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a table's state must be a tuple");
        return -1;
    }
    if (hold(m, o[4], 'Q', -1) == NULL
            || parse_hash(&m->views[m->num_views - 1], &t->hash, &t->ways, &t->sets) < 0)
        return -1;
    Py_ssize_t slots = t->ways * t->sets;
    if (t->max_attempts < 1) {
        PyErr_SetString(PyExc_ValueError, "max_attempts must be positive");
        return -1;
    }
    return (t->keys = hold(m, o[0], 'q', slots)) && (t->masks = hold(m, o[1], 'Q', slots))
        && (o[2] == Py_None || (t->stamps = hold(m, o[2], 'q', slots)))
        && (t->meta = hold(m, o[3], 'q', M_COLUMNS)) ? 0 : -1;
}

/* A slice's (table state, stats row, stash keys, stash masks, parks, and the
 * bits of a lookup's tags, a sharer update and an entry). */
static int
parse_slice(Machine *m, PyObject *spec, Table *t)
{
    PyObject *o[5];
    if (!PyTuple_Check(spec) || !PyArg_ParseTuple(spec, "OOOOOLLL", &o[0], &o[1], &o[2], &o[3],
                                                  &o[4], &t->tag_bits, &t->payload_bits,
                                                  &t->entry_bits)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a directory slice's state must be a tuple");
        return -1;
    }
    if (parse_table(m, o[0], t) < 0
            || (t->stats = hold(m, o[1], 'q', S_HISTOGRAM + t->max_attempts + 1)) == NULL
            || (t->stash_keys = hold(m, o[2], 'q', -1)) == NULL)
        return -1;
    t->stash_capacity = items(&m->views[m->num_views - 1]);
    if (t->stash_capacity && t->stamps) {
        PyErr_SetString(PyExc_ValueError, "an LRU table has no stash");
        return -1;
    }
    return (t->stash_masks = hold(m, o[3], 'Q', t->stash_capacity))
        && (t->parks = hold(m, o[4], 'q', 1)) ? 0 : -1;
}

PyDoc_STRVAR(machine_doc,
"machine(caches, banks, slices, hops, traffic, core_shift) -> capsule\n"
"\n"
"Take a system's typed buffers for drain(): a state tuple per tracked cache,\n"
"per shared-L2 bank (banks None without one) and per directory slice (a\n"
"power of two of them), the cores x cores int64 hop table, the traffic row\n"
"(None: not counted) and the shift from a tracked cache to its core.  The\n"
"capsule holds every buffer until it is freed; see TiledCMP._prepare_drain.");

static PyObject *
machine(PyObject *module, PyObject *args)
{
    PyObject *caches, *banks, *slices, *hops, *traffic;
    Py_ssize_t core_shift, i, views;
    (void)module;
    if (!PyArg_ParseTuple(args, "O!OO!OOn:machine", &PyTuple_Type, &caches, &banks,
                          &PyTuple_Type, &slices, &hops, &traffic, &core_shift))
        return NULL;
    if (banks != Py_None && !PyTuple_Check(banks)) {
        PyErr_SetString(PyExc_TypeError, "banks must be a tuple or None");
        return NULL;
    }
    Machine *m = PyMem_Calloc(1, sizeof(Machine));
    if (m == NULL)
        return PyErr_NoMemory();
    m->num_caches = PyTuple_GET_SIZE(caches);
    m->num_tables = PyTuple_GET_SIZE(slices);
    m->core_shift = core_shift;
    views = 5 * m->num_caches + 9 * m->num_tables + 2
        + (banks == Py_None ? 0 : 5 * PyTuple_GET_SIZE(banks));
    m->views = PyMem_Calloc(views, sizeof(Py_buffer));
    m->caches = PyMem_Calloc(m->num_caches + 1, sizeof(Cache));
    m->tables = PyMem_Calloc(m->num_tables + 1, sizeof(Table));
    m->banks = banks == Py_None ? NULL : PyMem_Calloc(m->num_tables + 1, sizeof(Cache));
    if (!m->views || !m->caches || !m->tables || (banks != Py_None && !m->banks)) {
        PyErr_NoMemory();
        goto fail;
    }
    if ((m->hops = hold(m, hops, 'q', -1)) == NULL)
        goto fail;
    m->cores = m->views[0].ndim == 2 ? m->views[0].shape[0] : 0;
    if (m->num_caches < 1 || m->num_caches > 64 || m->num_tables < 1 || core_shift < 0
            || core_shift > 1 || m->cores < 1 || m->views[0].shape[1] != m->cores
            || m->num_tables > m->cores || m->num_tables & (m->num_tables - 1)
            || (m->num_caches - 1) >> core_shift >= m->cores
            || (banks != Py_None && PyTuple_GET_SIZE(banks) != m->num_tables)) {
        PyErr_SetString(PyExc_ValueError, "machine() geometry out of range");
        goto fail;
    }
    m->slice_shift = __builtin_ctzll((u64)m->num_tables);
    if (traffic != Py_None && (m->traffic = hold(m, traffic, 'q', N_COLUMNS)) == NULL)
        goto fail;
    for (i = 0; i < m->num_caches; i++)
        if (parse_cache(m, PyTuple_GET_ITEM(caches, i), &m->caches[i]) < 0)
            goto fail;
    for (i = 0; i < m->num_tables; i++)
        if (parse_slice(m, PyTuple_GET_ITEM(slices, i), &m->tables[i]) < 0
                || (m->banks && parse_cache(m, PyTuple_GET_ITEM(banks, i), &m->banks[i]) < 0))
            goto fail;
    PyObject *capsule = PyCapsule_New(m, machine_name, machine_destructor);
    if (capsule != NULL)
        return capsule;
fail:
    free_machine(m);
    return NULL;
}

/* ---- the walk -------------------------------------------------------------- */

/* The displacement walk from the start way, with (*key, *mask) in flight:
 * one attempt per placement, until an entry lands in a vacant slot or
 * max_attempts placements are made.  The start way moves to where the walk
 * stopped.  Returns 1 when the walk was cut off, with the entry it threw out
 * in (*key, *mask); 0 when the table grew by one. */
static int
walk_impl(Table *t, i64 *key, u64 *mask, Py_ssize_t *attempts)
{
    Py_ssize_t way = (Py_ssize_t)t->meta[M_START_WAY];
    for (*attempts = 1;; ++*attempts) {
        Py_ssize_t slot = way * t->sets + hash_index(&t->hash, way, *key);
        i64 victim = t->keys[slot];
        u64 victim_mask = t->masks[slot];
        t->keys[slot] = *key;
        t->masks[slot] = *mask;
        *key = victim;
        *mask = victim_mask;
        if (victim == EMPTY) {
            t->meta[M_START_WAY] = way;
            t->meta[M_SIZE]++;
            return 0;
        }
        if (++way == t->ways)
            way = 0;
        if (*attempts == t->max_attempts) {
            t->meta[M_START_WAY] = way;
            return 1;
        }
    }
}

/* The start way in range, checked before a walk or a chunk. */
static int
check_start_way(const Table *t)
{
    if (t->meta[M_START_WAY] >= 0 && t->meta[M_START_WAY] < t->ways)
        return 0;
    PyErr_SetString(PyExc_IndexError, "a table's start way is out of range");
    return -1;
}

PyDoc_STRVAR(walk_doc,
"walk(table_state, key, mask) -> (attempts, evicted_key, evicted_mask)\n"
"\n"
"The displacement walk of CuckooHashTable over its typed state: writes key\n"
"over its candidate in the start way, then re-places each displaced entry\n"
"in the next way round-robin, one attempt per placement, until an entry\n"
"lands in a vacant slot or max_attempts placements are made.  The start way\n"
"moves to where the walk stopped.  A cut-off walk returns the entry it threw\n"
"out, else None, None.");

static PyObject *
walk(PyObject *module, PyObject *args)
{
    PyObject *spec, *key_obj, *result = NULL;
    unsigned long long mask;
    int overflow;
    Machine m = {0};
    Py_buffer views[5];
    Table t = {0};
    Py_ssize_t attempts;
    (void)module;
    if (!PyArg_ParseTuple(args, "OOK:walk", &spec, &key_obj, &mask))
        return NULL;
    i64 key = PyLong_AsLongLongAndOverflow(key_obj, &overflow);
    if (key == -1 && PyErr_Occurred())
        return NULL;
    if (overflow || key < 0) {
        PyErr_SetString(PyExc_IndexError, "a key must be a non-negative int64");
        return NULL;
    }
    m.views = views;
    if (parse_table(&m, spec, &t) == 0 && check_start_way(&t) == 0) {
        if (walk_impl(&t, &key, &mask, &attempts))
            result = Py_BuildValue("(nLK)", attempts, key, mask);
        else
            result = Py_BuildValue("(nOO)", attempts, Py_None, Py_None);
    }
    for (Py_ssize_t i = 0; i < m.num_views; i++)
        PyBuffer_Release(&views[i]);
    return result;
}

/* ---- the drain ------------------------------------------------------------- */

static void
send(Machine *m, int type, Py_ssize_t from, Py_ssize_t to)
{
    if (m->traffic) {
        m->traffic[type]++;
        m->traffic[N_HOPS] += m->hops[from * m->cores + to];
    }
}

/* -- a cache: SetAssociativeCache -- */

/* The first frame of block b's set (b >= 0): a mask for a power-of-two set
 * count (every configuration the experiments build), else a division. */
static Py_ssize_t
set_base(const Cache *k, i64 b)
{
    u64 set = k->masked ? (u64)b & (u64)(k->sets - 1) : (u64)b % (u64)k->sets;
    return (Py_ssize_t)set * k->ways;
}

/* The frame holding block b, found by scanning its set's ways, or -1. */
static Py_ssize_t
frame_of(const Cache *k, i64 b)
{
    if (b < 0)  /* the block of a corrupt table key */
        return -1;
    Py_ssize_t base = set_base(k, b);
    for (Py_ssize_t way = 0; way < k->ways; way++)
        if (k->tags[base + way] == b)
            return base + way;
    return -1;
}

/* invalidate(). */
static void
invalidate(Cache *k, i64 b)
{
    Py_ssize_t frame = frame_of(k, b);
    if (frame < 0)
        return;
    k->tags[frame] = EMPTY;
    k->stamps[frame] = 0;
    k->states[frame] = INVALID;
    k->dirty[frame] = 0;
    k->counts[K_INVALIDATIONS]++;
}

/* The frame a fill of block b takes (fill_miss_code): the set's first
 * vacant frame, else its least recently stamped one (the lowest way among
 * equal stamps), whose block is evicted; one scan finds either.  Returns 1
 * when that frame holds a victim, else 0. */
static int
pick_frame(Cache *k, i64 b, Py_ssize_t *frame)
{
    Py_ssize_t base = set_base(k, b), lru = base;
    for (Py_ssize_t way = 0; way < k->ways; way++) {
        if (k->tags[base + way] == EMPTY) {
            *frame = base + way;
            return 0;
        }
        if (k->stamps[base + way] < k->stamps[lru])
            lru = base + way;
    }
    *frame = lru;
    k->counts[K_EVICTIONS]++;
    k->counts[K_DIRTY_EVICTIONS] += k->dirty[*frame] != 0;
    return 1;
}

static void
install(Cache *k, Py_ssize_t frame, i64 b, int state, int dirty, i64 stamp)
{
    k->tags[frame] = b;
    k->stamps[frame] = stamp;
    k->states[frame] = (unsigned char)state;
    k->dirty[frame] = (unsigned char)dirty;
}

/* The shared-L2 bank at home h sees block b: touch_code, then
 * fill_miss_code on a miss. */
static void
bank_access(Machine *m, Py_ssize_t h, i64 b, int write)
{
    Cache *k = &m->banks[h];
    i64 stamp = ++k->counts[K_CLOCK];
    Py_ssize_t frame = frame_of(k, b);
    if (frame >= 0) {
        k->counts[K_HITS]++;
        k->stamps[frame] = stamp;
        if (write)
            k->dirty[frame] = 1;
        return;
    }
    k->counts[K_MISSES]++;
    pick_frame(k, b, &frame);
    install(k, frame, b, SHARED, 0, stamp);
}

/* -- a directory slice: TableDirectory over CuckooHashTable -- */

static void
candidates(const Table *t, i64 key, Py_ssize_t *index)
{
    for (Py_ssize_t way = 0; way < t->ways; way++)
        index[way] = hash_index(&t->hash, way, key);
}

/* The slot of key, found by scanning its candidates, or -1. */
static Py_ssize_t
slot_of(const Table *t, i64 key, const Py_ssize_t *index)
{
    for (Py_ssize_t way = 0; way < t->ways; way++)
        if (t->keys[way * t->sets + index[way]] == key)
            return way * t->sets + index[way];
    return -1;
}

/* key's first vacant candidate slot from the start way, or -1. */
static Py_ssize_t
first_vacant(const Table *t, const Py_ssize_t *index, Py_ssize_t *way)
{
    *way = (Py_ssize_t)t->meta[M_START_WAY];
    for (Py_ssize_t offset = 0; offset < t->ways; offset++) {
        if (t->keys[*way * t->sets + index[*way]] == EMPTY)
            return *way * t->sets + index[*way];
        if (++*way == t->ways)
            *way = 0;
    }
    return -1;
}

/* The position of key in the stash, or -1. */
static Py_ssize_t
stashed(const Table *t, i64 key)
{
    for (Py_ssize_t i = 0; i < t->stash_capacity && t->stash_keys[i] != EMPTY; i++)
        if (t->stash_keys[i] == key)
            return i;
    return -1;
}

/* Take entry i out of the stash; the younger ones move up. */
static void
unstash(Table *t, Py_ssize_t i)
{
    Py_ssize_t after = t->stash_capacity - i - 1;
    memmove(t->stash_keys + i, t->stash_keys + i + 1, after * sizeof(i64));
    memmove(t->stash_masks + i, t->stash_masks + i + 1, after * sizeof(u64));
    t->stash_keys[t->stash_capacity - 1] = EMPTY;
    t->stash_masks[t->stash_capacity - 1] = 0;
}

/* Home h invalidates block b in every cache of mask: an INVALIDATE and an
 * INV_ACK each. */
static int
invalidate_sharers(Machine *m, Py_ssize_t h, u64 mask, i64 b)
{
    for (; mask; mask &= mask - 1) {
        Py_ssize_t s = __builtin_ctzll(mask);
        if (s >= m->num_caches) {
            PyErr_SetString(PyExc_IndexError, "sharer out of range");
            return -1;
        }
        send(m, N_INV, h, s >> m->core_shift);
        send(m, N_ACK, s >> m->core_shift, h);
        invalidate(&m->caches[s], b);
    }
    return 0;
}

/* Home h lost the entry (key, mask): a forced invalidation of every sharer. */
static int
force_out(Machine *m, Py_ssize_t h, i64 key, u64 mask)
{
    Table *t = &m->tables[h];
    t->stats[S_FORCED]++;
    t->stats[S_FORCED_MESSAGES] += __builtin_popcountll(mask);
    return invalidate_sharers(m, h, mask, key * m->num_tables + h);
}

/* The entry a cut-off walk or an LRU eviction threw out of home h's table:
 * parked in the stash when it has any capacity, after forcing out its oldest
 * entry if it is full, else forced out. */
static int
park(Machine *m, Py_ssize_t h, i64 key, u64 mask)
{
    Table *t = &m->tables[h];
    Py_ssize_t last = t->stash_capacity - 1;
    if (t->stash_capacity == 0)
        return force_out(m, h, key, mask);
    if (t->stash_keys[last] != EMPTY) {
        i64 oldest = t->stash_keys[0];
        u64 oldest_mask = t->stash_masks[0];
        unstash(t, 0);
        TRY(force_out(m, h, oldest, oldest_mask));
    }
    while (last > 0 && t->stash_keys[last - 1] == EMPTY)
        last--;
    t->stash_keys[last] = key;
    t->stash_masks[last] = mask;
    t->parks[0]++;
    t->stats[S_BITS_WRITTEN] += t->entry_bits;
    return 0;
}

/* Every stash entry with a vacant candidate goes back into the table,
 * oldest first, each into its first vacant candidate from the start way,
 * which moves there. */
static void
reinsert(Table *t)
{
    Py_ssize_t index[MAX_WAYS], i = 0, way, slot;
    while (i < t->stash_capacity && t->stash_keys[i] != EMPTY) {
        candidates(t, t->stash_keys[i], index);
        if ((slot = first_vacant(t, index, &way)) < 0) {
            i++;
            continue;
        }
        t->keys[slot] = t->stash_keys[i];
        t->masks[slot] = t->stash_masks[i];
        unstash(t, i);
        t->meta[M_START_WAY] = way;
        t->meta[M_SIZE]++;
        t->stats[S_BITS_WRITTEN] += t->entry_bits;
    }
}

/* A new entry (key, mask) takes its first vacant candidate from the start
 * way (a cuckoo table moves its start way there, an LRU table stamps the
 * slot).  Every candidate full: the displacement walk (cuckoo) or the
 * eviction of the least recently stamped candidate (LRU), and the entry
 * that left is parked or forced out. */
static int
insert_new(Machine *m, Py_ssize_t h, i64 key, u64 mask, const Py_ssize_t *index)
{
    Table *t = &m->tables[h];
    Py_ssize_t way, attempts = 1, slot = first_vacant(t, index, &way);
    int evicted = 0;
    if (slot >= 0) {
        t->keys[slot] = key;
        t->masks[slot] = mask;
        t->meta[M_SIZE]++;
        if (t->stamps)
            t->stamps[slot] = ++t->meta[M_CLOCK];
        else
            t->meta[M_START_WAY] = way;
    }
    else {
        m->classes[C_WALKS]++;
        if (t->stamps == NULL)
            evicted = walk_impl(t, &key, &mask, &attempts);
        else {
            for (slot = index[0], way = 1; way < t->ways; way++)
                if (t->stamps[way * t->sets + index[way]] < t->stamps[slot])
                    slot = way * t->sets + index[way];
            i64 victim = t->keys[slot];
            u64 victim_mask = t->masks[slot];
            t->keys[slot] = key;
            t->masks[slot] = mask;
            t->stamps[slot] = ++t->meta[M_CLOCK];
            key = victim;
            mask = victim_mask;
            evicted = 1;
        }
    }
    t->stats[S_INSERTIONS]++;
    t->stats[S_ATTEMPTS] += attempts;
    t->stats[S_HISTOGRAM + attempts]++;
    t->stats[S_BITS_WRITTEN] += attempts * t->entry_bits;
    return evicted ? park(m, h, key, mask) : 0;
}

/* The home's side of cache c's miss or upgrade of block b, slice-local key.
 * The stash, if any, is consulted before the table.  A read adds c and
 * downgrades an M/E owner; a write makes c the only sharer and invalidates
 * the rest; an absent entry is inserted either way.  Returns the state c's
 * copy takes, or -1 on error. */
static int
directory(Machine *m, Py_ssize_t h, i64 key, i64 b, Py_ssize_t c, int write)
{
    Table *t = &m->tables[h];
    Py_ssize_t index[MAX_WAYS], slot = -1, parked = stashed(t, key);
    u64 bit = 1ULL << c, *entry, others;
    if (parked < 0) {
        candidates(t, key, index);
        slot = slot_of(t, key, index);
    }
    int found = parked >= 0 || slot >= 0;
    t->stats[S_LOOKUPS]++;
    if (!write)
        m->classes[found ? C_READ_DIRHIT : C_READ_INSERT]++;
    if (!found) {
        t->stats[S_LOOKUP_MISSES]++;
        t->stats[S_BITS_READ] += t->tag_bits;
        return insert_new(m, h, key, bit, index) < 0 ? -1 : write ? MODIFIED : EXCLUSIVE;
    }
    /* A stash hit reads the whole entry and no table tags. */
    t->stats[S_LOOKUP_HITS]++;
    t->stats[S_ADDITIONS]++;
    t->stats[S_BITS_READ] += parked >= 0 ? t->entry_bits : t->tag_bits + t->payload_bits;
    t->stats[S_BITS_WRITTEN] += t->payload_bits;
    if (parked >= 0)
        entry = &t->stash_masks[parked];
    else {
        entry = &t->masks[slot];
        if (t->stamps)
            t->stamps[slot] = ++t->meta[M_CLOCK];
    }
    others = *entry & ~bit;
    *entry = write && others ? bit : *entry | bit;
    if (write) {
        int removed = __builtin_popcountll(others);
        t->stats[S_INVALIDATE_ALL] += others != 0;
        t->stats[S_REMOVALS] += removed;
        t->stats[S_BITS_WRITTEN] += removed * t->payload_bits;
        /* Each removal from a table entry runs the stash's re-insert scan;
         * none frees a slot, so one scan does the work of all. */
        if (others && parked < 0)
            reinsert(t);
        return invalidate_sharers(m, h, others, b) < 0 ? -1 : MODIFIED;
    }
    /* An M/E owner holds the block alone: only a sole prior sharer can need
     * the downgrade. */
    if (!others || others & (others - 1))
        return SHARED;
    Py_ssize_t owner = __builtin_ctzll(others), frame;
    if (owner >= m->num_caches) {
        PyErr_SetString(PyExc_IndexError, "sharer out of range");
        return -1;
    }
    Cache *k = &m->caches[owner];
    if ((frame = frame_of(k, b)) >= 0 && k->states[frame] >= EXCLUSIVE) {
        send(m, N_FWD, h, owner >> m->core_shift);
        if (k->states[frame] == MODIFIED)
            send(m, N_PUT_M, owner >> m->core_shift, h);
        k->states[frame] = SHARED;
    }
    return SHARED;
}

/* Cache c's victim in frame is leaving (pick_frame): its PUT goes home,
 * where c leaves the entry's sharers.  An entry whose last sharer leaves is
 * freed.  A removal the table serves, found or not, then runs the stash's
 * re-insert scan; one from the stash does not.  The slice count is a power
 * of two (machine()), so the home split is a shift and a mask. */
static int
evict(Machine *m, Py_ssize_t c, Py_ssize_t frame)
{
    i64 victim = m->caches[c].tags[frame];
    if (victim < 0) {
        PyErr_SetString(PyExc_IndexError, "a negative block address in a cache");
        return -1;
    }
    i64 key = victim >> m->slice_shift;
    Py_ssize_t h = (Py_ssize_t)(victim & (m->num_tables - 1)), index[MAX_WAYS], slot = -1;
    Table *t = &m->tables[h];
    send(m, m->caches[c].dirty[frame] ? N_PUT_M : N_PUT_S, c >> m->core_shift, h);
    Py_ssize_t parked = stashed(t, key);
    if (parked < 0) {
        candidates(t, key, index);
        slot = slot_of(t, key, index);
    }
    if (parked >= 0 || slot >= 0) {
        u64 *entry = parked >= 0 ? &t->stash_masks[parked] : &t->masks[slot];
        *entry &= ~(1ULL << c);
        t->stats[S_REMOVALS]++;
        t->stats[S_BITS_WRITTEN] += t->payload_bits;
        if (!*entry) {
            t->stats[S_ENTRY_REMOVALS]++;
            if (parked >= 0)
                unstash(t, parked);
            else {
                t->keys[slot] = EMPTY;
                t->meta[M_SIZE]--;
            }
        }
    }
    if (parked < 0)
        reinsert(t);
    return 0;
}

/* Access i.  The trace rows are block, slice-local address, home, tracked
 * cache and write flag. */
static int
run_access(Machine *m, Py_ssize_t i)
{
    const i64 *trace = m->trace;
    Py_ssize_t n = m->n, frame;
    i64 b = trace[i], key = trace[n + i];
    Py_ssize_t h = (Py_ssize_t)trace[2 * n + i], c = (Py_ssize_t)trace[3 * n + i];
    int write = trace[4 * n + i] != 0, state;
    Cache *k = &m->caches[c];
    Py_ssize_t core = c >> m->core_shift;
    i64 stamp = ++k->counts[K_CLOCK];
    if ((frame = frame_of(k, b)) >= 0) {
        /* A hit stamps the frame; a write dirties it, and an S copy turns M
         * through its home (a GET_M, but no DATA back). */
        k->counts[K_HITS]++;
        k->stamps[frame] = stamp;
        if (write)
            k->dirty[frame] = 1;
        if (write && k->states[frame] == SHARED) {
            m->classes[C_UPGRADES]++;
            send(m, N_GET_M, core, h);
            TRY(directory(m, h, key, b, c, 1));
        }
        else
            m->classes[C_HITS]++;
        if (write)
            k->states[frame] = MODIFIED;
        return 0;
    }
    /* A miss: the request, the bank, the directory, the data, the fill. */
    k->counts[K_MISSES]++;
    send(m, write ? N_GET_M : N_GET_S, core, h);
    send(m, N_DATA, h, core);
    if (m->banks)
        bank_access(m, h, b, write);
    m->classes[C_WRITE_MISS] += write;
    TRY(state = directory(m, h, key, b, c, write));
    if (pick_frame(k, b, &frame))
        TRY(evict(m, c, frame));
    install(k, frame, b, state, write, stamp);
    return 0;
}

PyDoc_STRVAR(drain_doc,
"drain(machine, trace) -> (hits, upgrades, read_dirhit, read_insert,\n"
"                          write_miss, walks)\n"
"\n"
"Run a chunk of accesses through the protocol in trace order over the\n"
"machine's buffers, counting every statistic into them; trace is a (5, n)\n"
"int64 array of blocks, slice-local addresses, homes, tracked caches and\n"
"write flags.  Returns the chunk's accesses per class; see\n"
"TiledCMP.access_batch in repro.coherence.system.");

static PyObject *
drain(PyObject *module, PyObject *args)
{
    PyObject *capsule, *trace_obj, *result = NULL;
    Py_buffer view;
    Py_ssize_t i;
    (void)module;
    if (!PyArg_ParseTuple(args, "OO:drain", &capsule, &trace_obj))
        return NULL;
    if (!PyCapsule_IsValid(capsule, machine_name)) {
        PyErr_SetString(PyExc_TypeError, "drain() runs a machine() capsule");
        return NULL;
    }
    Machine *m = PyCapsule_GetPointer(capsule, machine_name);
    if ((m->trace = typed(trace_obj, 'q', -1, &view, WRITE)) == NULL)
        return NULL;
    m->n = items(&view) / 5;
    if (view.ndim != 2 || view.shape[0] != 5) {
        PyErr_SetString(PyExc_ValueError, "a trace has five rows");
        goto done;
    }
    for (i = 0; i < m->num_tables; i++)
        if (check_start_way(&m->tables[i]) < 0)
            goto done;
    for (i = 0; i < m->n; i++) {
        const i64 *trace = m->trace + i;
        if (trace[0] < 0 || trace[m->n] < 0 || trace[2 * m->n] < 0
                || trace[2 * m->n] >= m->num_tables || trace[3 * m->n] < 0
                || trace[3 * m->n] >= m->num_caches) {
            PyErr_Format(PyExc_IndexError, "access %zd of the trace is out of range", i);
            goto done;
        }
    }
    memset(m->classes, 0, sizeof m->classes);
    for (i = 0; i < m->n; i++)
        if (run_access(m, i) < 0)
            goto done;
    result = Py_BuildValue("(LLLLLL)", m->classes[C_HITS], m->classes[C_UPGRADES],
                           m->classes[C_READ_DIRHIT], m->classes[C_READ_INSERT],
                           m->classes[C_WRITE_MISS], m->classes[C_WALKS]);
done:
    PyBuffer_Release(&view);
    return result;
}

/* ---- trace production and translation -------------------------------------- */

typedef struct {  /* a ZipfSampler's CDF and guide table */
    const double *cdf;
    const i64 *guide;
    Py_ssize_t population, buckets;
} Zipf;

/* A sampler's (cdf, guide) into views[0..1], checked: the guide table has a
 * power of two plus one entries. */
static int
parse_zipf(PyObject *cdf, PyObject *guide, Py_buffer *views, Zipf *z)
{
    if (!(z->cdf = typed(cdf, 'd', -1, &views[0], READ))
            || !(z->guide = typed(guide, 'q', -1, &views[1], READ)))
        return -1;
    z->population = items(&views[0]);
    z->buckets = items(&views[1]) - 1;
    if (z->buckets < 1 || z->buckets & (z->buckets - 1)) {
        PyErr_SetString(PyExc_ValueError, "a guide table has a power of two plus one entries");
        return -1;
    }
    return 0;
}

/* searchsorted(cdf, u, side='left') into *rank, for u in [0, 1): u's answer
 * lies in cdf[guide[j] .. guide[j + 1]] for j = floor(u * M), whose two
 * entries are checked before the scan reads the cdf (ValueError). */
static inline int
zipf_rank(const Zipf *z, double u, i64 *rank)
{
    if (!(u >= 0.0 && u < 1.0)) {
        PyErr_SetString(PyExc_ValueError, "a uniform outside [0, 1)");
        return -1;
    }
    Py_ssize_t j = (Py_ssize_t)(u * z->buckets), k = z->guide[j], last = z->guide[j + 1];
    if (k < 0 || k > last || last >= z->population) {
        PyErr_SetString(PyExc_ValueError, "not a guide table of this cdf");
        return -1;
    }
    if (last - k > 2) {  /* a long bucket, in a heavy tail */
        while (k < last && z->cdf[k] < u)
            k++;
    }
    else {  /* two steps with no branch to mispredict (cdf[last] is read) */
        k += (k < last) & (z->cdf[k] < u);
        k += (k < last) & (z->cdf[k] < u);
    }
    *rank = k;
    return 0;
}

PyDoc_STRVAR(zipf_doc,
"zipf(cdf, guide, uniforms, out)\n"
"\n"
"Write searchsorted(cdf, u, side='left') into out for every uniform u in\n"
"[0, 1), cdf ending at 1, through a guide table of M + 1 int64 entries (M a\n"
"power of two), guide[j] = searchsorted(cdf, j / M): u's answer lies in\n"
"cdf[guide[j] .. guide[j + 1]] for j = floor(u * M); see ZipfSampler in\n"
"repro.workloads.base.");

static PyObject *
zipf(PyObject *module, PyObject *args)
{
    PyObject *objs[4], *result = NULL;
    Py_buffer views[4] = {{0}};
    const double *uniforms;
    i64 *out;
    Zipf z;
    (void)module;
    if (!PyArg_ParseTuple(args, "OOOO:zipf", &objs[0], &objs[1], &objs[2], &objs[3]))
        return NULL;
    if (parse_zipf(objs[0], objs[1], views, &z) < 0
            || !(uniforms = typed(objs[2], 'd', -1, &views[2], READ))
            || !(out = typed(objs[3], 'q', items(&views[2]), &views[3], WRITE)))
        goto done;
    for (Py_ssize_t i = 0; i < items(&views[2]); i++)
        if (zipf_rank(&z, uniforms[i], &out[i]) < 0)
            goto done;
    result = Py_None;
    Py_INCREF(result);
done:
    release(views, 4);
    return result;
}

PyDoc_STRVAR(synthetic_doc,
"synthetic(workload, cores, draws, targets, ranks, out)\n"
"\n"
"One chunk of SyntheticWorkload.trace_chunks from its RNG draws, in one\n"
"pass.  workload is (fractions, instr_base, shared_base, block_bytes,\n"
"private_bases, samplers): the instruction, shared-data, shared-write,\n"
"private-write and migration fractions, the region bases (private_bases one\n"
"int64 per core) and either the instruction, shared and private samplers'\n"
"(cdf, guide) pairs or None for uniform ranks.  cores and targets are n\n"
"int64 cores and migration targets; draws the (4, n) float64 kind, shared,\n"
"write and migration uniforms; ranks the (3, n) float64 Zipf uniforms of the\n"
"three regions (int64 ranks when samplers is None), of which an access\n"
"resolves only its own region's, as zipf() does.  out is the chunk's (int64\n"
"addresses, bool writes, bool instrs), written only when every access has\n"
"its rank (ValueError) and an owner in range (IndexError).");

static PyObject *
synthetic(PyObject *module, PyObject *args)
{
    PyObject *o[8], *samplers, *s[6], *result = NULL;
    Py_buffer views[14] = {{0}};
    double fraction[5];
    i64 instr_base, shared_base, block_bytes;
    const i64 *private_bases, *cores, *targets;
    const double *draws;
    const void *ranks;
    i64 *addresses, *staged = NULL;
    unsigned char *writes, *instrs;
    Py_ssize_t num_cores, n, i;
    Zipf z[3];
    (void)module;
    if (!PyArg_ParseTuple(args, "((ddddd)LLLOO)OOOO(OOO):synthetic", &fraction[0],
                          &fraction[1], &fraction[2], &fraction[3], &fraction[4], &instr_base,
                          &shared_base, &block_bytes, &o[0], &samplers, &o[1], &o[2], &o[3],
                          &o[4], &o[5], &o[6], &o[7]))
        return NULL;
    int skewed = samplers != Py_None;
    if (skewed && (!PyTuple_Check(samplers)
                 || !PyArg_ParseTuple(samplers, "(OO)(OO)(OO)", &s[0], &s[1], &s[2], &s[3],
                                      &s[4], &s[5]))) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "samplers must be a tuple or None");
        return NULL;
    }
    if (!(private_bases = typed(o[0], 'q', -1, &views[0], READ)))
        goto done;
    for (i = 0; skewed && i < 3; i++)
        if (parse_zipf(s[2 * i], s[2 * i + 1], &views[1 + 2 * i], &z[i]) < 0)
            goto done;
    if (!(cores = typed(o[1], 'q', -1, &views[7], READ))
            || !(draws = typed(o[2], 'd', 4 * (n = items(&views[7])), &views[8], READ))
            || !(targets = typed(o[3], 'q', n, &views[9], READ))
            || !(ranks = typed(o[4], skewed ? 'd' : 'q', 3 * n, &views[10], READ))
            || !(addresses = typed(o[5], 'q', n, &views[11], WRITE))
            || !(writes = typed(o[6], 'B', n, &views[12], WRITE))
            || !(instrs = typed(o[7], 'B', n, &views[13], WRITE)))
        goto done;
    if ((num_cores = items(&views[0])) < 1) {
        PyErr_SetString(PyExc_ValueError, "a workload has a private base per core");
        goto done;
    }
    /* The chunk is staged and copied out once every access has succeeded. */
    if ((staged = PyMem_Malloc(n * (sizeof(i64) + 2) + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    unsigned char *staged_writes = (unsigned char *)(staged + n), *staged_instrs = staged_writes + n;
    /* Each region's base (the private one is the owner's) and write fraction. */
    i64 base[3] = {instr_base, shared_base, 0};
    double write_fraction[3] = {0.0, fraction[2], fraction[3]};
    int bad_owner = 0;
    for (i = 0; i < n; i++) {
        /* An instruction fetch (region 0), else shared (1) or private (2)
         * data, chosen by arithmetic: a branch on a uniform is a coin flip. */
        int instr = draws[i] < fraction[0], shared = draws[n + i] < fraction[1];
        int region = (2 - shared) & (instr - 1);
        /* The owner of a private access, another core's on a migration; every
         * access's is checked, and an out-of-range one reads no base. */
        i64 owner = draws[3 * n + i] < fraction[4] ? targets[i] : cores[i], rank;
        int out_of_range = (u64)owner >= (u64)num_cores;
        bad_owner |= out_of_range;
        base[2] = private_bases[out_of_range ? 0 : owner];
        if (!skewed)
            rank = ((const i64 *)ranks)[region * n + i];
        else if (zipf_rank(&z[region], ((const double *)ranks)[region * n + i], &rank) < 0)
            goto done;
        staged[i] = (i64)((u64)base[region] + (u64)rank * (u64)block_bytes);
        staged_writes[i] = !instr & (draws[2 * n + i] < write_fraction[region]);
        staged_instrs[i] = (unsigned char)instr;
    }
    if (bad_owner) {
        PyErr_Format(PyExc_IndexError, "an owner out of range [0, %zd)", num_cores);
        goto done;
    }
    memcpy(addresses, staged, n * sizeof(i64));
    memcpy(writes, staged_writes, n);
    memcpy(instrs, staged_instrs, n);
    result = Py_None;
    Py_INCREF(result);
done:
    PyMem_Free(staged);
    release(views, 14);
    return result;
}

/* The page table's slot of virtual page v: the one holding it, else the
 * vacant one where it belongs (linear probing from a Fibonacci hash). */
static Py_ssize_t
page_slot(const i64 *keys, Py_ssize_t capacity, int bits, i64 v)
{
    Py_ssize_t slot = (Py_ssize_t)(((u64)v * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
    while (keys[slot] != EMPTY && keys[slot] != v)
        slot = (slot + 1) & (capacity - 1);
    return slot;
}

PyDoc_STRVAR(translate_doc,
"translate(mapper, fields, trace, geometry, start) -> stop\n"
"\n"
"First-touch translation of a trace slice straight into the drain's\n"
"five-row trace (a (5, n) int64 buffer).  mapper is (keys, pages, mapped,\n"
"sequence, page_bytes): a page table of int64 virtual pages (-1 vacant) and\n"
"their physical pages, a power of two slots at most half full, a one-item\n"
"row counting the pages mapped, and the allocation sequence, whose next\n"
"unused entry each new page takes.  fields is (cores, addresses, writes,\n"
"instrs), translated from access start on; geometry is (offset bits, slices,\n"
"cores, core shift).  Every core and address is checked before a page is mapped\n"
"(IndexError, ValueError).  Returns where it stopped: n, or the first access\n"
"that needs a page when the table is half full or the sequence used up, for\n"
"the caller to grow or refill and call again; see PageMapper.translate_trace.");

static PyObject *
translate(PyObject *module, PyObject *args)
{
    PyObject *o[9], *result = NULL;
    Py_buffer views[9] = {{0}};
    Py_ssize_t page_bytes, offset_bits, slices, cores, core_shift, start, capacity, n, i;
    i64 *keys, *pages, *mapped, *trace;
    const i64 *sequence, *core, *address;
    const unsigned char *write, *instr;
    int bad_core = 0, bad_address = 0;
    (void)module;
    if (!PyArg_ParseTuple(args, "(OOOOn)(OOOO)O(nnnn)n:translate", &o[0], &o[1], &o[2], &o[3],
                          &page_bytes, &o[4], &o[5], &o[6], &o[7], &o[8], &offset_bits,
                          &slices, &cores, &core_shift, &start))
        return NULL;
    if (!(keys = typed(o[0], 'q', -1, &views[0], WRITE))
            || !(pages = typed(o[1], 'q', capacity = items(&views[0]), &views[1], WRITE))
            || !(mapped = typed(o[2], 'q', 1, &views[2], WRITE))
            || !(sequence = typed(o[3], 'q', -1, &views[3], READ))
            || !(core = typed(o[4], 'q', -1, &views[4], READ))
            || !(address = typed(o[5], 'q', n = items(&views[4]), &views[5], READ))
            || !(write = typed(o[6], 'B', n, &views[6], READ))
            || !(instr = typed(o[7], 'B', n, &views[7], READ))
            || !(trace = typed(o[8], 'q', 5 * n, &views[8], WRITE)))
        goto done;
    if (capacity < 2 || capacity & (capacity - 1) || mapped[0] < 0 || 2 * mapped[0] > capacity
            || mapped[0] > items(&views[3]) || page_bytes < 1 || offset_bits < 0
            || offset_bits > 63 || slices < 1 || cores < 1 || core_shift < 0 || core_shift > 1
            || start < 0 || start > n) {
        PyErr_SetString(PyExc_ValueError, "translate() state or geometry out of range");
        goto done;
    }
    int bits = __builtin_ctzll((u64)capacity);
    for (i = start; i < n; i++) {
        bad_core |= core[i] < 0 || core[i] >= cores;
        bad_address |= address[i] < 0;
    }
    if (bad_core || bad_address) {
        if (bad_core)
            PyErr_Format(PyExc_IndexError, "core out of range [0, %zd) in trace chunk", cores);
        else
            PyErr_SetString(PyExc_ValueError, "virtual_address must be non-negative");
        goto done;
    }
    /* Power-of-two divisors (every configuration here) divide by shifting. */
    int page_shift = page_bytes & (page_bytes - 1) ? -1 : __builtin_ctzll(page_bytes);
    int slice_shift = slices & (slices - 1) ? -1 : __builtin_ctzll(slices);
    for (i = start; i < n; i++) {
        i64 page = page_shift < 0 ? address[i] / page_bytes : address[i] >> page_shift;
        Py_ssize_t slot = page_slot(keys, capacity, bits, page);
        if (keys[slot] == EMPTY) {
            if (2 * (mapped[0] + 1) > capacity || mapped[0] == items(&views[3]))
                break;
            keys[slot] = page;
            pages[slot] = sequence[mapped[0]++];
        }
        i64 b = (i64)(((u64)pages[slot] - (u64)page) * (u64)page_bytes + (u64)address[i])
            >> offset_bits;
        i64 local = slice_shift < 0 ? b / slices : b >> slice_shift;
        trace[i] = b;
        trace[n + i] = local;
        trace[2 * n + i] = b - local * slices;
        trace[3 * n + i] = (core[i] << core_shift) + (core_shift && !instr[i]);
        trace[4 * n + i] = write[i] != 0;
    }
    result = PyLong_FromSsize_t(i);
done:
    release(views, 9);
    return result;
}

static PyMethodDef methods[] = {
    {"walk", walk, METH_VARARGS, walk_doc},
    {"machine", machine, METH_VARARGS, machine_doc},
    {"drain", drain, METH_VARARGS, drain_doc},
    {"indices", indices, METH_VARARGS, indices_doc},
    {"zipf", zipf, METH_VARARGS, zipf_doc},
    {"synthetic", synthetic, METH_VARARGS, synthetic_doc},
    {"translate", translate, METH_VARARGS, translate_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "The compiled kernels (see repro.core.native).",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module_def);
}
