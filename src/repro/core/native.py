"""Build and load the compiled displacement walk (``_cuckoo_walk.c``).

The cuckoo table's displacement walk (:func:`repro.core.cuckoo_hash.
_walk_python`) is the simulator's costliest loop at tight provisionings,
so it also ships as a small CPython extension written against the C API.
There is no build step and no switch:

* :func:`load_walk` compiles the source with the interpreter's own
  compile-and-link line and include directory (:mod:`sysconfig`) the first
  time it is needed, into the per-user cache the default result store
  also lives in (``~/.cache/repro-cuckoo/``; a temp directory when that is
  not writable).
* The library's file name carries a hash of the source, the build command
  and the interpreter ABI (``EXT_SUFFIX``), so an edit, a new flag or
  another interpreter builds afresh and every later import, pool workers
  included, loads the cached file.
* The compiler writes a temp file that is :func:`os.replace`\\ d into
  place, so a concurrent process never loads a partial library, and a
  directory that is not the user's own (or that others can write) is
  never used.
* Any failure (no compiler, no ``Python.h``, a compile or a load error)
  returns ``None`` and the table keeps the Python walk.  Either way one
  info-level line on the ``repro.core.native`` logger says which walk
  loaded, or why the compiled one did not.
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable, List, Optional

__all__ = ["SOURCE", "build_command", "load_walk"]

_MODULE = "_cuckoo_walk"

#: The C source of the walk, shipped beside this module.
SOURCE = Path(__file__).with_name(_MODULE + ".c")

_LOG = logging.getLogger("repro.core.native")


class _BuildError(RuntimeError):
    """The walk cannot be built on this host (any directory would fail)."""


def _library_dirs() -> List[Path]:
    """Where a built walk may live, in order of preference."""
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    return [
        Path.home() / ".cache" / "repro-cuckoo",
        Path(tempfile.gettempdir()) / f"repro-cuckoo-{uid}",
    ]


def build_command(output: Path, source: Path = SOURCE) -> List[str]:
    """The interpreter's own compile-and-link line for ``source``."""
    config = sysconfig.get_config_var
    link = config("LDSHARED") or f"{config('CC') or 'cc'} -shared"
    paths = sysconfig.get_paths()
    includes = dict.fromkeys((paths["include"], paths["platinclude"]))
    return [
        *shlex.split(link),
        *shlex.split(config("CCSHARED") or ""),
        "-O2",
        *(f"-I{include}" for include in includes),
        str(source),
        "-o",
        str(output),
    ]


def _library_name() -> str:
    """``_cuckoo_walk-<hash><EXT_SUFFIX>``: source, command and ABI hashed.

    The command is hashed with placeholder paths, so every checkout of the
    same source shares one library.
    """
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest = hashlib.sha256(SOURCE.read_bytes())
    command = build_command(Path(_MODULE), Path(SOURCE.name))
    digest.update("\0".join(command).encode())
    digest.update(suffix.encode())
    return f"{_MODULE}-{digest.hexdigest()[:16]}{suffix}"


def _private_dir(directory: Path) -> None:
    """Create ``directory``; refuse one that others could plant a library in."""
    directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    status = directory.stat()
    if hasattr(os, "getuid") and (
        status.st_uid != os.getuid() or status.st_mode & 0o022
    ):
        raise PermissionError(f"{directory} is not private to this user")


def _build(path: Path) -> None:
    """Compile ``SOURCE`` to a temp file beside ``path``, then rename it."""
    include = Path(sysconfig.get_paths()["include"])
    if not (include / "Python.h").exists():
        raise _BuildError(f"no Python.h in {include}")
    handle, temp = tempfile.mkstemp(
        prefix=f".{_MODULE}-", suffix=path.suffix, dir=path.parent
    )
    os.close(handle)
    try:
        command = build_command(Path(temp))
        try:
            completed = subprocess.run(
                command,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise _BuildError(f"cannot run {command[0]}: {error}") from error
        if completed.returncode != 0:
            output = completed.stdout.decode(errors="replace").strip()
            last = output.splitlines()[-1] if output else "no output"
            raise _BuildError(
                f"{command[0]} exited with {completed.returncode}: {last}"
            )
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


def _import(path: Path):
    spec = importlib.util.spec_from_file_location(_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_walk() -> Optional[Callable]:
    """The compiled walk, built on first use; ``None`` if it cannot load.

    Logs one info-level line either way: the library loaded, or the reason
    the Python walk stays in use.
    """
    try:
        name = _library_name()
        failures = []
        for directory in _library_dirs():
            path = directory / name
            try:
                _private_dir(directory)
                if not path.exists():
                    _build(path)
            except OSError as error:  # not writable here: try the next one
                failures.append(f"{directory}: {error}")
                continue
            walk = _import(path).walk
            _LOG.info("compiled cuckoo walk loaded from %s", path)
            return walk
        raise _BuildError("; ".join(failures))
    except Exception as error:  # any failure keeps the reference walk
        _LOG.info(
            "compiled cuckoo walk unavailable, using the Python walk: %s", error
        )
        return None
