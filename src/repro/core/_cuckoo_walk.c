/* The cuckoo displacement walk, compiled.
 *
 * One function, walk(), with the signature and semantics of
 * repro.core.cuckoo_hash._walk_python, which stays the reference: it runs
 * over the table's own Python way lists, locator dict and indices cache,
 * so the table's layout does not change.  repro.core.native builds this
 * file on first import and falls back to the Python walk on any failure.
 *
 * Every index is bounds-checked as list indexing is (a negative index
 * counts from the end), so a corrupted index raises IndexError instead of
 * writing outside a way.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* The vacant-slot sentinel of the way key lists. */
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

/* The list keys[way] (or values[way]), checked.  Borrowed. */
static PyObject *
way_list(PyObject *ways, Py_ssize_t way)
{
    if (way >= PyList_GET_SIZE(ways)) {
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

PyDoc_STRVAR(walk_doc,
"walk(keys, values, locator, indices_cache, way_fns, key, value, way,\n"
"     max_attempts) -> (attempts, way, evicted_key, evicted_value)\n"
"\n"
"The displacement walk of CuckooHashTable, compiled; see _walk_python in\n"
"repro.core.cuckoo_hash for the reference and the return value.");

static PyObject *
walk(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 9) {
        PyErr_Format(PyExc_TypeError, "walk() takes 9 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *keys = args[0];
    PyObject *values = args[1];
    PyObject *locator = args[2];
    PyObject *cache = args[3];
    PyObject *way_fns = args[4];
    if (!PyList_Check(keys) || !PyList_Check(values) || !PyDict_Check(locator)
            || !PyDict_Check(cache) || !PyTuple_Check(way_fns)) {
        PyErr_SetString(PyExc_TypeError,
                        "walk() takes (list, list, dict, dict, tuple, ...)");
        return NULL;
    }
    Py_ssize_t num_ways = PyTuple_GET_SIZE(way_fns);
    Py_ssize_t way = PyLong_AsSsize_t(args[7]);
    if (way == -1 && PyErr_Occurred()) {
        return NULL;
    }
    Py_ssize_t max_attempts = PyLong_AsSsize_t(args[8]);
    if (max_attempts == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (way < 0 || way >= num_ways) {
        PyErr_SetString(PyExc_IndexError, "start way out of range");
        return NULL;
    }

    /* The entry in flight: owned references throughout. */
    PyObject *key = args[5];
    PyObject *value = args[6];
    Py_INCREF(key);
    Py_INCREF(value);
    Py_ssize_t attempts = 0;
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
            way_keys = way_list(keys, way);
            way_values = way_keys ? way_list(values, way) : NULL;
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
            return Py_BuildValue("(nnOO)", attempts, way, Py_None, Py_None);
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
    return Py_BuildValue("(nnNN)", attempts, way, key, value);

fail:
    Py_DECREF(key);
    Py_DECREF(value);
    return NULL;
}

static PyMethodDef methods[] = {
    {"walk", (PyCFunction)(void (*)(void))walk, METH_FASTCALL, walk_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_cuckoo_walk",
    "The compiled cuckoo displacement walk (see repro.core.native).",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__cuckoo_walk(void)
{
    return PyModule_Create(&module_def);
}
