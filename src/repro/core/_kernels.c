/* The compiled kernels: the cuckoo displacement walk and the protocol drain.
 *
 * drain() runs a chunk of accesses through the MESI protocol in trace order,
 * over every directory slice the simulator builds (a Cuckoo, Sparse or
 * Skewed table, and the Cuckoo table with an overflow stash); walk() is the
 * displacement walk of CuckooHashTable.walk, which the drain calls as a
 * plain C function.  They are the simulator's only definitions of both: the
 * handler loop and the Python walk they are tested against live in
 * tests/coherence/reference_protocol.py.  Both run over the simulator's own
 * lists and dicts (caches' flat frame lists and residency dicts; tables' way
 * lists, locators, LRU stamps and indices caches; sharer pools, stashes and
 * sharer sets' _mask), so nothing changes layout.  repro.core.native builds
 * this file on first import.
 *
 * Every argument is type-checked and every index bounds-checked, so corrupt
 * state raises TypeError or IndexError instead of writing outside a list
 * (the walk indexes a way as list indexing does, negatives from the end;
 * the drain rejects negatives).  Only C-API calls of Python 3.9 are used.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

/* The vacant-slot sentinel of the way key lists and the cache tag lists. */
#define EMPTY_KEY -1L

static int
is_empty(PyObject *key)
{
    if (PyLong_CheckExact(key)) {
        int overflow;
        long value = PyLong_AsLongAndOverflow(key, &overflow);
        return !overflow && value == EMPTY_KEY;
    }
    PyObject *empty = PyLong_FromLong(EMPTY_KEY);
    if (empty == NULL) {
        return -1;
    }
    int result = PyObject_RichCompareBool(key, empty, Py_EQ);
    Py_DECREF(empty);
    return result;
}

/* The list ways[way], checked.  Borrowed. */
static PyObject *
row(PyObject *ways, Py_ssize_t way)
{
    if (way < 0 || way >= PyList_GET_SIZE(ways)) {
        PyErr_SetString(PyExc_IndexError, "way index out of range");
        return NULL;
    }
    PyObject *list = PyList_GET_ITEM(ways, way);
    if (!PyList_Check(list)) {
        PyErr_SetString(PyExc_TypeError, "each way must be a list");
        return NULL;
    }
    return list;
}

/* ---- the walk ------------------------------------------------------------ */

/* The candidate index of key in way: its cached row's entry, else the way's
 * hash function.  Returns a new reference. */
static PyObject *
candidate_index(PyObject *cache, PyObject *way_fns, PyObject *key, Py_ssize_t way)
{
    PyObject *row = PyDict_GetItemWithError(cache, key);
    if (row == NULL) {
        if (PyErr_Occurred()) {
            return NULL;
        }
        return PyObject_CallOneArg(PyTuple_GET_ITEM(way_fns, way), key);
    }
    /* Rows seeded by the drain are tuples, rows from the indices function
     * lists; anything else takes the generic sequence protocol. */
    if (PyTuple_CheckExact(row) && way < PyTuple_GET_SIZE(row)) {
        PyObject *index = PyTuple_GET_ITEM(row, way);
        Py_INCREF(index);
        return index;
    }
    if (PyList_CheckExact(row) && way < PyList_GET_SIZE(row)) {
        PyObject *index = PyList_GET_ITEM(row, way);
        Py_INCREF(index);
        return index;
    }
    return PySequence_GetItem(row, way);
}

/* The walk of walk() below.  *way is the start way on entry and the stop
 * way on return; *evicted_key and *evicted_value are new references to the
 * entry a cut-off walk threw out, or NULL. */
static int
walk_impl(PyObject *keys, PyObject *values, PyObject *locator, PyObject *cache,
          PyObject *way_fns, PyObject *key, PyObject *value, Py_ssize_t *way_io,
          Py_ssize_t max_attempts, Py_ssize_t *attempts_out,
          PyObject **evicted_key, PyObject **evicted_value)
{
    Py_ssize_t num_ways = PyTuple_GET_SIZE(way_fns);
    Py_ssize_t way = *way_io;
    Py_ssize_t attempts = 0;
    /* The entry in flight: owned references throughout. */
    Py_INCREF(key);
    Py_INCREF(value);
    *evicted_key = *evicted_value = NULL;
    while (attempts < max_attempts) {
        attempts++;
        PyObject *index_obj = candidate_index(cache, way_fns, key, way);
        if (index_obj == NULL) {
            goto fail;
        }
        Py_ssize_t index = PyNumber_AsSsize_t(index_obj, PyExc_IndexError);
        PyObject *way_keys = NULL;
        PyObject *way_values = NULL;
        if (!(index == -1 && PyErr_Occurred())) {
            way_keys = row(keys, way);
            way_values = way_keys ? row(values, way) : NULL;
        }
        if (way_values != NULL) {
            Py_ssize_t size = PyList_GET_SIZE(way_keys);
            if (index < 0) {
                index += size;
            }
            if (index < 0 || index >= size || index >= PyList_GET_SIZE(way_values)) {
                PyErr_SetString(PyExc_IndexError, "list index out of range");
                way_values = NULL;
            }
        }
        if (way_values == NULL) {
            Py_DECREF(index_obj);
            goto fail;
        }
        PyObject *slot = PyTuple_New(2);
        PyObject *way_obj = PyLong_FromSsize_t(way);
        if (slot == NULL || way_obj == NULL) {
            Py_XDECREF(slot);
            Py_XDECREF(way_obj);
            Py_DECREF(index_obj);
            goto fail;
        }
        PyTuple_SET_ITEM(slot, 0, way_obj);
        PyTuple_SET_ITEM(slot, 1, index_obj);
        /* Swap the entry in flight with the slot's: the lists take our
         * references and hand us the victim's. */
        PyObject *victim_key = PyList_GET_ITEM(way_keys, index);
        PyObject *victim_value = PyList_GET_ITEM(way_values, index);
        PyList_SET_ITEM(way_keys, index, key);
        PyList_SET_ITEM(way_values, index, value);
        int failed = PyDict_SetItem(locator, key, slot) < 0;
        Py_DECREF(slot);
        key = victim_key;
        value = victim_value;
        if (failed) {
            goto fail;
        }
        int empty = is_empty(key);
        if (empty < 0) {
            goto fail;
        }
        if (empty) {
            Py_DECREF(key);
            Py_DECREF(value);
            goto done;
        }
        way++;
        if (way == num_ways) {
            way = 0;
        }
    }
    /* Cut off: the last displaced entry leaves the table. */
    if (PyDict_DelItem(locator, key) < 0) {
        goto fail;
    }
    *evicted_key = key;
    *evicted_value = value;
done:
    *attempts_out = attempts;
    *way_io = way;
    return 0;
fail:
    Py_DECREF(key);
    Py_DECREF(value);
    return -1;
}

PyDoc_STRVAR(walk_doc,
"walk(keys, values, locator, indices_cache, way_fns, key, value, way,\n"
"     max_attempts) -> (attempts, way, evicted_key, evicted_value)\n"
"\n"
"The displacement walk of CuckooHashTable: writes key over its candidate in\n"
"way, then re-places each displaced entry in the next way round-robin, one\n"
"attempt per placement, until an entry lands in a vacant slot or\n"
"max_attempts placements are made.  Returns where the walk stopped and, for\n"
"a cut-off walk, the entry it threw out (else None, None).");

static PyObject *
walk(PyObject *module, PyObject *args)
{
    PyObject *keys, *values, *locator, *cache, *way_fns, *key, *value, *evicted, *victim;
    Py_ssize_t way, max_attempts, attempts;
    (void)module;
    if (!PyArg_ParseTuple(args, "O!O!O!O!O!OOnn:walk", &PyList_Type, &keys, &PyList_Type,
                          &values, &PyDict_Type, &locator, &PyDict_Type, &cache,
                          &PyTuple_Type, &way_fns, &key, &value, &way, &max_attempts))
        return NULL;
    if (way < 0 || way >= PyTuple_GET_SIZE(way_fns)) {
        PyErr_SetString(PyExc_IndexError, "start way out of range");
        return NULL;
    }
    if (walk_impl(keys, values, locator, cache, way_fns, key, value, &way, max_attempts,
                  &attempts, &evicted, &victim) < 0)
        return NULL;
    if (evicted == NULL)
        return Py_BuildValue("(nnOO)", attempts, way, Py_None, Py_None);
    return Py_BuildValue("(nnNN)", attempts, way, evicted, victim);
}

/* ---- the drain ----------------------------------------------------------- */

#define TRY(call) do { if ((call) < 0) return -1; } while (0)

/* The MESI codes of repro.cache.cache (STATE_*). */
enum { INVALID, SHARED, EXCLUSIVE, MODIFIED };

/* Columns of the counts rows TiledCMP._drain_compiled reads: per cache
 * (and bank), per table, and the chunk's totals. */
enum { K_HITS, K_MISSES, K_EVICTIONS, K_DIRTY_EVICTIONS, K_INVALIDATIONS, K_CLOCK };
enum { T_LOOKUPS, T_LOOKUP_HITS, T_REMOVALS, T_ENTRY_REMOVALS, T_INVALIDATE_ALL,
       T_FORCED, T_FORCED_MESSAGES, T_SIZE, T_START_WAY, T_CLOCK, T_STASH_HITS,
       T_PARKS, T_REINSERTS, T_HISTOGRAM };
enum { N_GET_S, N_GET_M, N_DATA, N_INV, N_ACK, N_PUT_M, N_PUT_S, N_FWD, N_HOPS,
       N_HITS, N_UPGRADES, N_READ_DIRHIT, N_READ_INSERT, N_WRITE_MISS, N_WALKS,
       N_COLUMNS };

typedef struct {  /* a tracked cache or a shared-L2 bank */
    PyObject *location, *tags, *states, *dirty, *stamps, *counts;
    long long *out;
    Py_ssize_t sets, ways;
} Cache;

typedef struct {  /* a directory slice: its table, sharer pool and any stash */
    PyObject *locator, *keys, *values, *lru, *indices, *way_fns, *pool;
    PyObject *stash;  /* NULL for a plain table */
    Py_ssize_t ways, max_attempts, stash_capacity;
    long long *out;
} Table;

typedef struct {
    Cache *caches, *banks;  /* banks is NULL without a shared L2 */
    Table *tables;
    Py_ssize_t num_caches, num_tables, cores, core_shift, indices_limit, n;
    int track;
    PyObject *sharer_cls, *width;
    const long long *trace, *hops;  /* [row][access], [from][to] */
    long long *totals;
} Drain;

static PyObject *mask_name;  /* "_mask", the sharer sets' bit mask */

/* list[index], bounds-checked.  Borrowed. */
static PyObject *
item(PyObject *list, Py_ssize_t index)
{
    if (index >= 0 && index < PyList_GET_SIZE(list))
        return PyList_GET_ITEM(list, index);
    PyErr_SetString(PyExc_IndexError, "list index out of range");
    return NULL;
}

/* list[index] = value, bounds-checked; steals value (NULL after a failed
 * allocation). */
static int
store(PyObject *list, Py_ssize_t index, PyObject *value)
{
    if (value == NULL || item(list, index) == NULL) {
        Py_XDECREF(value);
        return -1;
    }
    PyObject *old = PyList_GET_ITEM(list, index);
    PyList_SET_ITEM(list, index, value);
    Py_DECREF(old);
    return 0;
}

static int
store_ll(PyObject *list, Py_ssize_t index, long long value)
{
    return store(list, index, PyLong_FromLongLong(value));
}

static int
load(PyObject *list, Py_ssize_t index, long long *value)
{
    PyObject *obj = item(list, index);
    *value = obj ? PyLong_AsLongLong(obj) : -1;
    return *value == -1 && PyErr_Occurred() ? -1 : 0;
}

/* Access i's candidate index in way: the trace rows after the five fields. */
static Py_ssize_t
candidate(Drain *d, Py_ssize_t way, Py_ssize_t i)
{
    return (Py_ssize_t)d->trace[(5 + way) * d->n + i];
}

static void
send(Drain *d, int type, Py_ssize_t from, Py_ssize_t to)
{
    if (d->track) {
        d->totals[type]++;
        d->totals[N_HOPS] += d->hops[from * d->cores + to];
    }
}

static int
get_mask(Drain *d, PyObject *sharers, unsigned long long *mask)
{
    if (!PyObject_TypeCheck(sharers, (PyTypeObject *)d->sharer_cls)) {
        PyErr_SetString(PyExc_TypeError, "a directory entry's value must be a sharer set");
        return -1;
    }
    PyObject *value = PyObject_GetAttr(sharers, mask_name);
    *mask = value ? PyLong_AsUnsignedLongLong(value) : (unsigned long long)-1;
    Py_XDECREF(value);
    return *mask == (unsigned long long)-1 && PyErr_Occurred() ? -1 : 0;
}

static int
set_mask(PyObject *sharers, unsigned long long mask)
{
    PyObject *value = PyLong_FromUnsignedLongLong(mask);
    int failed = value ? PyObject_SetAttr(sharers, mask_name, value) : -1;
    Py_XDECREF(value);
    return failed;
}

/* -- a cache's flat lists: SetAssociativeCache -- */

/* The frame holding block, or -1; -2 on error. */
static Py_ssize_t
frame_of(Cache *k, PyObject *block)
{
    PyObject *frame = PyDict_GetItemWithError(k->location, block);
    if (frame == NULL)
        return PyErr_Occurred() ? -2 : -1;
    Py_ssize_t index = PyLong_AsSsize_t(frame);
    if (index >= 0)
        return index;
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_IndexError, "frame index out of range");
    return -2;
}

/* invalidate(). */
static int
invalidate(Cache *k, PyObject *block)
{
    Py_ssize_t frame = frame_of(k, block);
    long long count;
    if (frame < 0)
        return frame == -1 ? 0 : -1;
    if (PyDict_DelItem(k->location, block) < 0 || store_ll(k->tags, frame, EMPTY_KEY) < 0
            || store_ll(k->states, frame, INVALID) < 0
            || store(k->dirty, frame, PyBool_FromLong(0)) < 0
            || store_ll(k->stamps, frame, 0) < 0
            || load(k->counts, frame / k->ways, &count) < 0
            || store_ll(k->counts, frame / k->ways, count - 1) < 0)
        return -1;
    k->out[K_INVALIDATIONS]++;
    return 0;
}

/* The frame a fill of block b takes (fill_miss_code): the set's first
 * vacant frame, counted in, else its least recently stamped one, whose
 * block leaves the residency map as an eviction.  Returns 1 when that
 * frame held a victim, 0 when it was vacant, -1 on error. */
static int
pick_frame(Cache *k, long long b, Py_ssize_t *frame)
{
    Py_ssize_t set = (Py_ssize_t)(b % k->sets), base = set * k->ways, way;
    long long count, stamp, oldest = 0, dirty;
    PyObject *tag;
    TRY(load(k->counts, set, &count));
    for (way = 0; count < k->ways && way < k->ways; way++) {
        int empty = (tag = item(k->tags, base + way)) ? is_empty(tag) : -1;
        TRY(empty);
        if (empty) {
            *frame = base + way;
            return store_ll(k->counts, set, count + 1);
        }
    }
    if (count < k->ways) {
        PyErr_SetString(PyExc_ValueError, "no vacant frame in a set counted as not full");
        return -1;
    }
    for (*frame = -1, way = 0; way < k->ways; way++) {
        TRY(load(k->stamps, base + way, &stamp));
        if (*frame < 0 || stamp < oldest) {
            *frame = base + way;
            oldest = stamp;
        }
    }
    if ((tag = item(k->tags, *frame)) == NULL || load(k->dirty, *frame, &dirty) < 0
            || PyDict_DelItem(k->location, tag) < 0)
        return -1;
    k->out[K_EVICTIONS]++;
    k->out[K_DIRTY_EVICTIONS] += dirty != 0;
    return 1;
}

/* Write block into frame and map it there. */
static int
install(Cache *k, Py_ssize_t frame, PyObject *block, int state, int dirty, long long stamp)
{
    PyObject *index;
    Py_INCREF(block);
    if (store(k->tags, frame, block) < 0 || store_ll(k->states, frame, state) < 0
            || store(k->dirty, frame, PyBool_FromLong(dirty)) < 0
            || store_ll(k->stamps, frame, stamp) < 0
            || (index = PyLong_FromSsize_t(frame)) == NULL)
        return -1;
    int failed = PyDict_SetItem(k->location, block, index);
    Py_DECREF(index);
    return failed;
}

/* The shared-L2 bank at home h sees block b: touch_code, then
 * fill_miss_code on a miss. */
static int
bank_access(Drain *d, Py_ssize_t h, PyObject *block, long long b, int write)
{
    Cache *k = &d->banks[h];
    long long stamp = ++k->out[K_CLOCK];
    Py_ssize_t frame = frame_of(k, block);
    if (frame >= 0) {
        k->out[K_HITS]++;
        TRY(store_ll(k->stamps, frame, stamp));
        return write ? store(k->dirty, frame, PyBool_FromLong(1)) : 0;
    }
    k->out[K_MISSES]++;
    if (frame == -2 || pick_frame(k, b, &frame) < 0)
        return -1;
    return install(k, frame, block, SHARED, 0, stamp);
}

/* -- a directory table's lists: TableDirectory over CuckooHashTable -- */

/* The slot of key: 1 when present, 0 when absent, -1 on error. */
static int
locate(Table *t, PyObject *key, Py_ssize_t *way, Py_ssize_t *index)
{
    PyObject *slot = PyDict_GetItemWithError(t->locator, key);
    if (slot == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if (!PyTuple_Check(slot) || PyTuple_GET_SIZE(slot) != 2) {
        PyErr_SetString(PyExc_TypeError, "a locator slot must be a (way, index) tuple");
        return -1;
    }
    if ((*way = PyLong_AsSsize_t(PyTuple_GET_ITEM(slot, 0))) == -1 && PyErr_Occurred())
        return -1;
    *index = PyLong_AsSsize_t(PyTuple_GET_ITEM(slot, 1));
    return *index == -1 && PyErr_Occurred() ? -1 : 1;
}

/* The sharer set at (way, index), after an LRU table stamps the slot (a
 * sharer is about to change).  Borrowed. */
static PyObject *
touch(Table *t, Py_ssize_t way, Py_ssize_t index)
{
    PyObject *values = row(t->values, way), *stamps;
    if (values == NULL || (t->lru != Py_None
                           && ((stamps = row(t->lru, way)) == NULL
                               || store_ll(stamps, index, ++t->out[T_CLOCK]) < 0)))
        return NULL;
    return item(values, index);
}

/* Write key and value (stolen) into (way, index) and locate key there. */
static int
place(Table *t, Py_ssize_t way, Py_ssize_t index, PyObject *key, PyObject *value)
{
    PyObject *keys = row(t->keys, way), *values = keys ? row(t->values, way) : NULL;
    PyObject *slot;
    Py_INCREF(key);
    if (values == NULL || store(keys, index, key) < 0) {
        Py_DECREF(value);
        if (values == NULL)
            Py_DECREF(key);
        return -1;
    }
    if (store(values, index, value) < 0 || (slot = Py_BuildValue("(nn)", way, index)) == NULL)
        return -1;
    int failed = PyDict_SetItem(t->locator, key, slot);
    Py_DECREF(slot);
    return failed;
}

/* A cuckoo table's indices cache takes key's candidate row, as a tuple,
 * while it is below its bound (a row already there is equal). */
static int
seed(Drain *d, Table *t, PyObject *key, Py_ssize_t i)
{
    int present = PyDict_Contains(t->indices, key);
    if (present != 0 || PyDict_Size(t->indices) >= d->indices_limit)
        return present < 0 ? -1 : 0;
    PyObject *indices = PyTuple_New(t->ways);
    for (Py_ssize_t way = 0; indices && way < t->ways; way++) {
        PyObject *index = PyLong_FromSsize_t(candidate(d, way, i));
        if (index == NULL)
            Py_CLEAR(indices);
        else
            PyTuple_SET_ITEM(indices, way, index);
    }
    int failed = indices ? PyDict_SetItem(t->indices, key, indices) : -1;
    Py_XDECREF(indices);
    return failed;
}

/* Home h invalidates block in every cache of mask: an INVALIDATE and an
 * INV_ACK each. */
static int
invalidate_sharers(Drain *d, Py_ssize_t h, unsigned long long mask, PyObject *block)
{
    for (; mask; mask &= mask - 1) {
        Py_ssize_t s = __builtin_ctzll(mask);
        if (s >= d->num_caches) {
            PyErr_SetString(PyExc_IndexError, "sharer out of range");
            return -1;
        }
        send(d, N_INV, h, s >> d->core_shift);
        send(d, N_ACK, s >> d->core_shift, h);
        TRY(invalidate(&d->caches[s], block));
    }
    return 0;
}

/* Home h lost the entry of key (borrowed, with its sharers): a forced
 * invalidation of every sharer. */
static int
force_out(Drain *d, Py_ssize_t h, PyObject *key, PyObject *sharers)
{
    Table *t = &d->tables[h];
    long long local = PyLong_AsLongLong(key);
    unsigned long long mask;
    PyObject *block;
    if ((local == -1 && PyErr_Occurred()) || get_mask(d, sharers, &mask) < 0
            || (block = PyLong_FromLongLong(local * d->num_tables + h)) == NULL)
        return -1;
    t->out[T_FORCED]++;
    t->out[T_FORCED_MESSAGES] += __builtin_popcountll(mask);
    int failed = invalidate_sharers(d, h, mask, block);
    Py_DECREF(block);
    return failed;
}

/* -- the stash: StashedCuckooDirectory, a dict in age order -- */

/* The sharer set key holds in t's stash (borrowed): 1 when it is parked
 * there, 0 when it is not or t has no stash, -1 on error. */
static int
stashed(Table *t, PyObject *key, PyObject **sharers)
{
    if (t->stash == NULL || PyDict_GET_SIZE(t->stash) == 0)
        return 0;
    if ((*sharers = PyDict_GetItemWithError(t->stash, key)) == NULL)
        return PyErr_Occurred() ? -1 : 0;
    return 1;
}

/* The entry a cut-off walk or an LRU eviction threw out of home h's table
 * (borrowed): parked in the stash when there is one with any capacity,
 * after forcing out its oldest entry if it is full, else forced out. */
static int
park(Drain *d, Py_ssize_t h, PyObject *key, PyObject *sharers)
{
    Table *t = &d->tables[h];
    PyObject *oldest, *oldest_sharers;
    Py_ssize_t position = 0;
    if (t->stash == NULL || t->stash_capacity == 0)
        return force_out(d, h, key, sharers);
    if (PyDict_GET_SIZE(t->stash) >= t->stash_capacity
            && PyDict_Next(t->stash, &position, &oldest, &oldest_sharers)) {
        Py_INCREF(oldest);
        Py_INCREF(oldest_sharers);
        int failed = PyDict_DelItem(t->stash, oldest) < 0
            || force_out(d, h, oldest, oldest_sharers) < 0;
        Py_DECREF(oldest);
        Py_DECREF(oldest_sharers);
        if (failed)
            return -1;
    }
    t->out[T_PARKS]++;
    return PyDict_SetItem(t->stash, key, sharers);
}

/* The first vacant candidate slot of key from the start way: 1 with the
 * slot, 0 when every candidate is full, -1 on error. */
static int
first_vacant(Table *t, PyObject *key, Py_ssize_t *way, Py_ssize_t *index)
{
    PyObject *index_obj, *keys, *slot;
    int empty;
    for (Py_ssize_t offset = 0; offset < t->ways; offset++) {
        *way = ((Py_ssize_t)t->out[T_START_WAY] + offset) % t->ways;
        if ((index_obj = candidate_index(t->indices, t->way_fns, key, *way)) == NULL)
            return -1;
        *index = PyNumber_AsSsize_t(index_obj, PyExc_IndexError);
        Py_DECREF(index_obj);
        if ((*index == -1 && PyErr_Occurred()) || (keys = row(t->keys, *way)) == NULL
                || (slot = item(keys, *index)) == NULL || (empty = is_empty(slot)) < 0)
            return -1;
        if (empty)
            return 1;
    }
    return 0;
}

/* Every stash entry with a vacant candidate goes back into the table,
 * oldest first, each into its first vacant candidate from the start way,
 * which moves there. */
static int
reinsert(Table *t)
{
    PyObject *keys, *key, *sharers;
    Py_ssize_t n, way, index;
    int failed = 0, vacant;
    if (PyDict_GET_SIZE(t->stash) == 0)
        return 0;
    if ((keys = PyDict_Keys(t->stash)) == NULL)
        return -1;
    for (n = 0; !failed && n < PyList_GET_SIZE(keys); n++) {
        key = PyList_GET_ITEM(keys, n);
        vacant = first_vacant(t, key, &way, &index);
        if (vacant > 0 && (sharers = PyDict_GetItemWithError(t->stash, key)) != NULL) {
            Py_INCREF(sharers);
            failed = place(t, way, index, key, sharers) < 0
                || PyDict_DelItem(t->stash, key) < 0;
            t->out[T_START_WAY] = way;
            t->out[T_SIZE]++;
            t->out[T_REINSERTS]++;
        }
        else
            failed = vacant < 0 || PyErr_Occurred() != NULL;
    }
    Py_DECREF(keys);
    return failed ? -1 : 0;
}

/* Every candidate of key is full: the displacement walk (cuckoo) or the
 * eviction of the least recently stamped candidate (LRU), then the entry
 * that left is parked or forced out.  Steals sharers. */
static int
insert_full(Drain *d, Py_ssize_t h, PyObject *key, PyObject *sharers, Py_ssize_t i)
{
    Table *t = &d->tables[h];
    PyObject *victim = NULL, *victims = NULL, *keys;
    Py_ssize_t attempts = 1, way = (Py_ssize_t)t->out[T_START_WAY], best = 0;
    long long stamp, oldest = 0;
    int failed = -1;
    d->totals[N_WALKS]++;
    if (t->lru == Py_None) {
        if (seed(d, t, key, i) < 0
                || walk_impl(t->keys, t->values, t->locator, t->indices, t->way_fns, key,
                             sharers, &way, t->max_attempts, &attempts, &victim,
                             &victims) < 0)
            goto done;
        t->out[T_START_WAY] = way;
        t->out[T_SIZE] += victim == NULL;
    }
    else {
        for (way = 0; way < t->ways; way++) {
            PyObject *stamps = row(t->lru, way);
            if (stamps == NULL || load(stamps, candidate(d, way, i), &stamp) < 0)
                goto done;
            if (way == 0 || stamp < oldest) {
                best = way;
                oldest = stamp;
            }
        }
        keys = row(t->keys, best);
        victim = keys ? item(keys, candidate(d, best, i)) : NULL;
        Py_XINCREF(victim);
        if (victim == NULL || (victims = touch(t, best, candidate(d, best, i))) == NULL)
            goto done;
        Py_INCREF(victims);
        Py_INCREF(sharers);
        if (PyDict_DelItem(t->locator, victim) < 0
                || place(t, best, candidate(d, best, i), key, sharers) < 0)
            goto done;
    }
    t->out[T_HISTOGRAM + attempts]++;
    failed = victim != NULL && park(d, h, victim, victims) < 0 ? -1 : 0;
done:
    Py_DECREF(sharers);
    Py_XDECREF(victim);
    Py_XDECREF(victims);
    return failed;
}

/* A new entry: a pooled (or new) sharer set holding
 * mask takes key's first vacant candidate from the start way (a cuckoo
 * table moves its start way there, an LRU table stamps the slot), else
 * insert_full. */
static int
insert_new(Drain *d, Py_ssize_t h, PyObject *key, unsigned long long mask, Py_ssize_t i)
{
    Table *t = &d->tables[h];
    Py_ssize_t pooled = PyList_GET_SIZE(t->pool), start = (Py_ssize_t)t->out[T_START_WAY];
    PyObject *sharers = pooled ? PyList_GET_ITEM(t->pool, pooled - 1) : NULL;
    Py_XINCREF(sharers);
    if (pooled && PyList_SetSlice(t->pool, pooled - 1, pooled, NULL) < 0)
        Py_CLEAR(sharers);
    else if (!pooled)
        sharers = PyObject_CallOneArg(d->sharer_cls, d->width);
    if (sharers == NULL || set_mask(sharers, mask) < 0) {
        Py_XDECREF(sharers);
        return -1;
    }
    for (Py_ssize_t offset = 0; offset < t->ways; offset++) {
        Py_ssize_t way = (start + offset) % t->ways, index = candidate(d, way, i);
        PyObject *keys = row(t->keys, way), *slot = keys ? item(keys, index) : NULL;
        int empty = slot ? is_empty(slot) : -1;
        if (empty < 0) {
            Py_DECREF(sharers);
            return -1;
        }
        if (!empty)
            continue;
        TRY(place(t, way, index, key, sharers));
        if (t->lru == Py_None) {
            t->out[T_START_WAY] = way;
            TRY(seed(d, t, key, i));
        }
        else if (touch(t, way, index) == NULL)
            return -1;
        t->out[T_HISTOGRAM + 1]++;
        t->out[T_SIZE]++;
        return 0;
    }
    return insert_full(d, h, key, sharers, i);
}

/* The home's side of cache c's miss or upgrade (the caller counts the
 * lookup).  The stash, if any, is consulted before the table.  A read adds c
 * and downgrades an M/E owner; a write makes c the only sharer and
 * invalidates the rest; an absent entry is inserted either way.  Returns
 * the state c's copy takes, or -1 on error. */
static int
directory(Drain *d, Py_ssize_t h, PyObject *key, PyObject *block, Py_ssize_t c,
          Py_ssize_t i, int write)
{
    Table *t = &d->tables[h];
    unsigned long long bit = 1ULL << c, mask, others;
    Py_ssize_t way, index, frame, owner;
    long long state;
    PyObject *sharers;
    int parked = stashed(t, key, &sharers), found = parked;
    if (!parked)
        found = locate(t, key, &way, &index);
    if (found < 0)
        return -1;
    if (!write)
        d->totals[found ? N_READ_DIRHIT : N_READ_INSERT]++;
    if (!found)
        return insert_new(d, h, key, bit, i) < 0 ? -1 : write ? MODIFIED : EXCLUSIVE;
    t->out[T_LOOKUP_HITS]++;
    t->out[T_STASH_HITS] += parked;
    if ((!parked && (sharers = touch(t, way, index)) == NULL)
            || get_mask(d, sharers, &mask) < 0)
        return -1;
    others = mask & ~bit;
    TRY(set_mask(sharers, write && others ? bit : mask | bit));
    if (write) {
        t->out[T_INVALIDATE_ALL] += others != 0;
        t->out[T_REMOVALS] += __builtin_popcountll(others);
        /* Each removal from a table entry runs the stash's re-insert scan;
         * none frees a slot, so one scan does the work of all. */
        if (others && !parked && t->stash && reinsert(t) < 0)
            return -1;
        return invalidate_sharers(d, h, others, block) < 0 ? -1 : MODIFIED;
    }
    /* An M/E owner holds the block alone: only a sole prior sharer can need
     * the downgrade. */
    if (!others || others & (others - 1))
        return SHARED;
    if ((owner = __builtin_ctzll(others)) >= d->num_caches) {
        PyErr_SetString(PyExc_IndexError, "sharer out of range");
        return -1;
    }
    Cache *k = &d->caches[owner];
    if ((frame = frame_of(k, block)) == -2 || (frame >= 0 && load(k->states, frame, &state) < 0))
        return -1;
    if (frame >= 0 && state >= EXCLUSIVE) {
        send(d, N_FWD, h, owner >> d->core_shift);
        if (state == MODIFIED)
            send(d, N_PUT_M, owner >> d->core_shift, h);
        TRY(store_ll(k->states, frame, SHARED));
    }
    return SHARED;
}

/* Cache c's victim in frame has left (pick_frame): its PUT goes home, where
 * c leaves the entry's sharers.  An entry whose last sharer leaves is freed
 * and its sharer set pooled.  A removal the table serves, found or not,
 * then runs the stash's re-insert scan; one from the stash does not. */
static int
evict(Drain *d, Py_ssize_t c, Py_ssize_t frame)
{
    long long victim, dirty;
    unsigned long long mask = 1;
    Py_ssize_t way, index;
    PyObject *key, *sharers = NULL, *keys, *values = NULL;
    TRY(load(d->caches[c].tags, frame, &victim));
    TRY(load(d->caches[c].dirty, frame, &dirty));
    if (victim < 0) {
        PyErr_SetString(PyExc_IndexError, "negative block address");
        return -1;
    }
    Table *t = &d->tables[victim % d->num_tables];
    send(d, dirty ? N_PUT_M : N_PUT_S, c >> d->core_shift, victim % d->num_tables);
    if ((key = PyLong_FromLongLong(victim / d->num_tables)) == NULL)
        return -1;
    int parked = stashed(t, key, &sharers), found = parked;
    if (!parked && (found = locate(t, key, &way, &index)) > 0)
        sharers = (values = row(t->values, way)) ? item(values, index) : NULL;
    int failed = found < 0 || (found && (sharers == NULL || get_mask(d, sharers, &mask) < 0
                                         || set_mask(sharers, mask &= ~(1ULL << c)) < 0));
    t->out[T_REMOVALS] += found > 0;
    if (found > 0 && !failed && !mask) {
        failed = PyList_Append(t->pool, sharers) < 0 || (parked
            ? PyDict_DelItem(t->stash, key) < 0
            : (keys = row(t->keys, way)) == NULL || PyDict_DelItem(t->locator, key) < 0
              || store_ll(keys, index, EMPTY_KEY) < 0
              || store(values, index, (Py_INCREF(Py_None), Py_None)) < 0);
        t->out[T_ENTRY_REMOVALS]++;
        t->out[T_SIZE] -= !parked;
    }
    if (!parked && !failed && t->stash)
        failed = reinsert(t) < 0;
    Py_DECREF(key);
    return failed ? -1 : 0;
}

/* Access i.  The trace rows are block, slice-local address, home, tracked
 * cache and write flag, then the candidate rows. */
static int
run_access(Drain *d, Py_ssize_t i)
{
    const long long *trace = d->trace;
    Py_ssize_t n = d->n, frame;
    long long b = trace[i], h = trace[2 * n + i], c = trace[3 * n + i], current = 0;
    int write = trace[4 * n + i] != 0, failed = -1, full, state;
    if (b < 0 || h < 0 || h >= d->num_tables || c < 0 || c >= d->num_caches) {
        PyErr_SetString(PyExc_IndexError, "access out of range");
        return -1;
    }
    Cache *k = &d->caches[c];
    Table *t = &d->tables[h];
    Py_ssize_t core = c >> d->core_shift;
    long long stamp = ++k->out[K_CLOCK];
    PyObject *block = PyLong_FromLongLong(b), *key = NULL;
    if (block == NULL || (frame = frame_of(k, block)) == -2)
        goto done;
    if (frame >= 0) {
        /* A hit stamps the frame; a write dirties it, and an S copy turns M
         * through its home (a GET_M, but no DATA back). */
        k->out[K_HITS]++;
        if (store_ll(k->stamps, frame, stamp) < 0 || (write
                && (store(k->dirty, frame, PyBool_FromLong(1)) < 0
                    || load(k->states, frame, &current) < 0)))
            goto done;
        failed = 0;
        if (write && current == SHARED) {
            d->totals[N_UPGRADES]++;
            t->out[T_LOOKUPS]++;
            send(d, N_GET_M, core, h);
            if ((key = PyLong_FromLongLong(trace[n + i])) == NULL
                    || directory(d, h, key, block, c, i, 1) < 0)
                failed = -1;
        }
        else
            d->totals[N_HITS]++;
        if (write && !failed)
            failed = store_ll(k->states, frame, MODIFIED);
        goto done;
    }
    /* A miss: the request, the bank, the directory, the data, the fill. */
    k->out[K_MISSES]++;
    t->out[T_LOOKUPS]++;
    send(d, write ? N_GET_M : N_GET_S, core, h);
    send(d, N_DATA, h, core);
    if ((d->banks && bank_access(d, h, block, b, write) < 0)
            || (key = PyLong_FromLongLong(trace[n + i])) == NULL)
        goto done;
    d->totals[N_WRITE_MISS] += write;
    state = directory(d, h, key, block, c, i, write);
    if (state >= 0 && (full = pick_frame(k, b, &frame)) >= 0
            && !(full && evict(d, c, frame) < 0))
        failed = install(k, frame, block, state, write, stamp);
done:
    Py_XDECREF(block);
    Py_XDECREF(key);
    return failed;
}

/* -- arguments -- */

/* obj's buffer as a 2-D C-contiguous int64 array. */
static long long *
int64s(PyObject *obj, Py_buffer *view)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        return NULL;
    const char *format = view->format ? view->format : "B";
    char code = format[strlen(format) - 1];
    if (view->itemsize == 8 && view->ndim == 2 && (code == 'q' || code == 'l')
            && format[0] != '>' && format[0] != '!' && view->shape[0] && view->shape[1])
        return view->buf;
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_TypeError, "expected a 2-D C-contiguous int64 array");
    return NULL;
}

/* A cache's (location, tags, states, dirty, stamps, set_counts), borrowed. */
static int
parse_cache(PyObject *state, Py_ssize_t sets, Py_ssize_t ways, long long *out, Cache *k)
{
    *k = (Cache){.out = out, .sets = sets, .ways = ways};
    if (PyTuple_Check(state) && PyArg_ParseTuple(
            state, "O!O!O!O!O!O!", &PyDict_Type, &k->location, &PyList_Type, &k->tags,
            &PyList_Type, &k->states, &PyList_Type, &k->dirty, &PyList_Type, &k->stamps,
            &PyList_Type, &k->counts))
        return 0;
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError, "a cache's state must be a tuple");
    return -1;
}

/* A table's (locator, keys, values, LRU stamps or None, indices cache or
 * None, way functions, max attempts, sharer pool), then a stashed cuckoo
 * table's stash and capacity, borrowed. */
static int
parse_table(PyObject *state, Py_ssize_t ways, Py_ssize_t columns, long long *out,
            Table *t)
{
    *t = (Table){.out = out};
    if (!PyTuple_Check(state) || !PyArg_ParseTuple(
            state, "O!O!O!OOO!nO!|O!n", &PyDict_Type, &t->locator, &PyList_Type, &t->keys,
            &PyList_Type, &t->values, &t->lru, &t->indices, &PyTuple_Type, &t->way_fns,
            &t->max_attempts, &PyList_Type, &t->pool, &PyDict_Type, &t->stash,
            &t->stash_capacity)
            || !(t->lru == Py_None || PyList_Check(t->lru))
            || !(PyDict_Check(t->indices) || (t->indices == Py_None && t->lru != Py_None))
            || (t->stash && t->lru != Py_None)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "a table's state is (dict, list, list, list or "
                            "None, dict or None, tuple, int, list), and a stashed cuckoo "
                            "table's (dict, int) after it");
        return -1;
    }
    t->ways = PyTuple_GET_SIZE(t->way_fns);
    if (t->ways != ways || t->max_attempts < 1 || t->max_attempts >= columns - T_HISTOGRAM
            || out[T_START_WAY] < 0 || out[T_START_WAY] >= ways || t->stash_capacity < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "table ways, attempts, start way or stash capacity out of range");
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(drain_doc,
"drain(caches, tables, banks, config, trace, hops, counts)\n"
"\n"
"Run a chunk of accesses through the protocol in trace order, adding its\n"
"statistics to counts; see TiledCMP._drain_compiled in\n"
"repro.coherence.system for the arguments.");

static PyObject *
drain(PyObject *module, PyObject *args)
{
    Drain d = {0};
    Py_buffer views[3] = {{0}};  /* trace, hops, counts */
    PyObject *caches, *tables, *banks, *arrays[3], *result = NULL;
    Py_ssize_t sets, ways, bank_sets, bank_ways, columns, i;
    long long *out = NULL;
    (void)module;
    if (!PyArg_ParseTuple(args, "O!O!O(nnnnnpOOn)OOO:drain", &PyTuple_Type, &caches,
                          &PyTuple_Type, &tables, &banks, &sets, &ways, &bank_sets,
                          &bank_ways, &d.core_shift, &d.track, &d.sharer_cls, &d.width,
                          &d.indices_limit, &arrays[0], &arrays[1], &arrays[2]))
        return NULL;
    if (!PyType_Check(d.sharer_cls)) {
        PyErr_SetString(PyExc_TypeError, "the sharer set class must be a type");
        return NULL;
    }
    d.num_caches = PyTuple_GET_SIZE(caches);
    d.num_tables = PyTuple_GET_SIZE(tables);
    for (i = 0; i < 3; i++)
        if ((out = int64s(arrays[i], &views[i])) == NULL)
            goto done;
    d.trace = views[0].buf;
    d.hops = views[1].buf;
    d.n = views[0].shape[1];
    d.cores = views[1].shape[0];
    columns = views[2].shape[1];
    d.totals = out + (d.num_caches + 2 * d.num_tables) * columns;
    if (d.num_caches < 1 || d.num_caches > 64 || d.num_tables < 1 || d.core_shift < 0
            || d.core_shift > 1 || sets < 1 || ways < 1 || bank_sets < 1 || bank_ways < 1
            || views[0].shape[0] < 6 || views[1].shape[1] != d.cores
            || d.num_tables > d.cores || (d.num_caches - 1) >> d.core_shift >= d.cores
            || columns < N_COLUMNS || views[2].shape[0] != d.num_caches + 2 * d.num_tables + 1
            || (banks != Py_None && (!PyTuple_Check(banks)
                                     || PyTuple_GET_SIZE(banks) != d.num_tables))) {
        PyErr_SetString(PyExc_ValueError, "drain() geometry out of range");
        goto done;
    }
    d.caches = PyMem_Calloc(d.num_caches, sizeof(Cache));
    d.tables = PyMem_Calloc(d.num_tables, sizeof(Table));
    d.banks = banks == Py_None ? NULL : PyMem_Calloc(d.num_tables, sizeof(Cache));
    if (!d.caches || !d.tables || (banks != Py_None && !d.banks)) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < d.num_caches; i++)
        if (parse_cache(PyTuple_GET_ITEM(caches, i), sets, ways, out + i * columns,
                        &d.caches[i]) < 0)
            goto done;
    for (i = 0; i < d.num_tables; i++)
        if (parse_table(PyTuple_GET_ITEM(tables, i), views[0].shape[0] - 5, columns,
                        out + (d.num_caches + i) * columns, &d.tables[i]) < 0
                || (d.banks && parse_cache(PyTuple_GET_ITEM(banks, i), bank_sets, bank_ways,
                                           out + (d.num_caches + d.num_tables + i) * columns,
                                           &d.banks[i]) < 0))
            goto done;
    for (i = 0; i < d.n; i++)
        if (run_access(&d, i) < 0)
            goto done;
    result = Py_None;
    Py_INCREF(result);
done:
    PyMem_Free(d.caches);
    PyMem_Free(d.tables);
    PyMem_Free(d.banks);
    for (i = 0; i < 3; i++)
        if (views[i].obj != NULL)
            PyBuffer_Release(&views[i]);
    return result;
}

static PyMethodDef methods[] = {
    {"walk", walk, METH_VARARGS, walk_doc},
    {"drain", drain, METH_VARARGS, drain_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "The compiled walk and drain (see repro.core.native).",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    if (mask_name == NULL && (mask_name = PyUnicode_InternFromString("_mask")) == NULL)
        return NULL;
    return PyModule_Create(&module_def);
}
