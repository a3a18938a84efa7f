"""Text serialization for environment models.

Sectioned key/value format so instances can live in test fixtures::

    [model]
    name = flat-emission
    class_tag = Class2
    ...

    [initial]
    p = 1.0000000000000000e+00 0.0000000000000000e+00 ...

    [sub-transitions h=1 i=0 a=0]   # product form; joint form uses
    v0 = ...                        # [transitions h=1 a=0] with rows s0...

    [rewards h=1]
    s0 = ...

    [emissions h=1 q=0,1]
    o0 = ...

Probability rows are space-separated decimals printed with 17 significant
digits, so every float64 round-trips exactly.  Candidate-class files hold
several models back to back, each starting at its [model] section.  The
loader refuses a header whose tables would exceed ``envs.MAX_TABLE_CELLS``
cells before it allocates any of them, and re-validates every model
invariant.
"""

import math
import re
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .core import ConfigError, Dims
from .envs import MAX_TABLE_CELLS, EnvModel, canonical_state_vectors

FLOAT_FMT = "%.16e"

_SECTION_RE = re.compile(r"^\[([a-z-]+)((?:\s+[a-z0-9_]+=[^\s\]]+)*)\]$")
_ARG_RE = re.compile(r"([a-z0-9_]+)=([^\s\]]+)")

_MODEL_FIELDS = (
    "name",
    "class_tag",
    "transition_form",
    "d",
    "alphabet_size",
    "d_query",
    "horizon",
    "n_actions",
    "n_observations",
)


@dataclass
class Section:
    name: str
    args: dict
    rows: list  # (key, value string, line number)
    line: int


def format_row(values):
    return " ".join(FLOAT_FMT % v for v in np.asarray(values, dtype=float))


def parse_sections(text, source="<string>"):
    """Split sectioned text into Section records, tracking line numbers."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            args = dict(_ARG_RE.findall(m.group(2)))
            current = Section(name=m.group(1), args=args, rows=[], line=lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: data before any [section] header")
        key, _, value = line.partition("=")
        current.rows.append((key.strip(), value.strip(), lineno))
    return sections


def _row_floats(value, source, lineno):
    try:
        return np.array([float(tok) for tok in value.split()], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{source}:{lineno}: bad number row: {exc}") from None


def _row_ints(value, source, lineno):
    try:
        return [int(tok) for tok in value.split()]
    except ValueError as exc:
        raise ConfigError(f"{source}:{lineno}: bad integer row: {exc}") from None


def _indexed_rows(section, prefix, count, width, source, as_int=False):
    """Rows r\"<prefix><i> = ...\" for i in range(count), in order."""
    got = {}
    for key, value, lineno in section.rows:
        if not key.startswith(prefix):
            raise ConfigError(f"{source}:{lineno}: expected rows named {prefix}<i>")
        try:
            idx = int(key[len(prefix):])
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: bad row key {key!r}") from None
        if not 0 <= idx < count:
            raise ConfigError(f"{source}:{lineno}: row index {idx} outside [0, {count})")
        if idx in got:
            raise ConfigError(f"{source}:{lineno}: duplicate row {key!r}")
        row = _row_ints(value, source, lineno) if as_int else _row_floats(value, source, lineno)
        if len(row) != width:
            raise ConfigError(
                f"{source}:{lineno}: row {key!r} has {len(row)} entries, want {width}"
            )
        got[idx] = row
    missing = [i for i in range(count) if i not in got]
    if missing:
        raise ConfigError(
            f"{source}:{section.line}: section [{section.name}] missing row "
            f"{prefix}{missing[0]}"
        )
    return np.array([got[i] for i in range(count)])


def _int_arg(section, key, source):
    try:
        return int(section.args[key])
    except KeyError:
        raise ConfigError(
            f"{source}:{section.line}: section [{section.name}] needs {key}="
        ) from None
    except ValueError:
        raise ConfigError(
            f"{source}:{section.line}: bad integer for {key}={section.args[key]!r}"
        ) from None


def _keyed_sections(by_name, name, ranges, source, head):
    """Yield (key, section) for the [name k=<int> ...] sections of one model.

    ranges maps each integer header arg, in key order, to its allowed range;
    every key in their product must appear exactly once.  A key out of
    range or repeated raises at its section, a missing one (the
    lexicographically first) at the [model] header once all are read.
    """

    def label(key):
        return " ".join(f"{arg}={v}" for arg, v in zip(ranges, key))

    seen = set()
    for sec in by_name.get(name, []):
        key = tuple(_int_arg(sec, arg, source) for arg in ranges)
        if not all(v in r for v, r in zip(key, ranges.values())):
            raise ConfigError(f"{source}:{sec.line}: {name} {label(key)} out of range")
        if key in seen:
            raise ConfigError(f"{source}:{sec.line}: duplicate {name} {label(key)}")
        seen.add(key)
        yield key, sec
    for key in iter_product(*ranges.values()):
        if key not in seen:
            raise ConfigError(f"{source}:{head.line}: missing [{name} {label(key)}]")


def dumps_model(m):
    """Serialize one EnvModel to text."""
    dims = m.dims
    out = ["[model]"]
    values = {
        "name": m.name,
        "class_tag": m.class_tag,
        "transition_form": m.transition_form,
        "d": dims.d,
        "alphabet_size": dims.alphabet_size,
        "d_query": dims.d_query,
        "horizon": dims.horizon,
        "n_actions": dims.n_actions,
        "n_observations": dims.n_observations,
    }
    out.extend(f"{k} = {values[k]}" for k in _MODEL_FIELDS)
    out.append("")

    if not np.array_equal(m.state_vectors, canonical_state_vectors(dims)):
        out.append("[state-vectors]")
        for s, vec in enumerate(m.state_vectors):
            out.append(f"s{s} = " + " ".join(str(int(v)) for v in vec))
        out.append("")

    out.append("[initial]")
    out.append("p = " + format_row(m.initial))
    out.append("")

    for h in range(1, dims.horizon):
        if m.transition_form == "joint":
            for a in range(dims.n_actions):
                out.append(f"[transitions h={h} a={a}]")
                for s in range(m.n_states):
                    out.append(f"s{s} = " + format_row(m.joint[h - 1, s, a]))
                out.append("")
        else:
            for i in range(dims.d):
                for a in range(dims.n_actions):
                    out.append(f"[sub-transitions h={h} i={i} a={a}]")
                    for v in range(dims.alphabet_size):
                        out.append(f"v{v} = " + format_row(m.product[h - 1, i, v, a]))
                    out.append("")

    for h in range(1, dims.horizon + 1):
        out.append(f"[rewards h={h}]")
        for s in range(m.n_states):
            out.append(f"s{s} = " + format_row(m.rewards[h - 1, s]))
        out.append("")

    if m.emissions:
        for h, q in sorted(m.emissions):
            qtxt = ",".join(str(i) for i in q)
            out.append(f"[emissions h={h} q={qtxt}]")
            table = m.emissions[(h, q)]
            for o in range(dims.n_observations):
                out.append(f"o{o} = " + format_row(table[o]))
            out.append("")

    return "\n".join(out)


def _build_model(sections, source):
    """Assemble and validate one model from its section list."""
    head = sections[0]
    fields = {}
    for key, value, lineno in head.rows:
        if key not in _MODEL_FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown model field {key!r}")
        fields[key] = (value, lineno)
    for key in _MODEL_FIELDS:
        if key not in fields:
            raise ConfigError(
                f"{source}:{head.line}: [model] section missing field {key!r}"
            )

    def intfield(key):
        value, lineno = fields[key]
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: bad integer {key} = {value!r}") from None

    try:
        dims = Dims(
            d=intfield("d"),
            alphabet_size=intfield("alphabet_size"),
            d_query=intfield("d_query"),
            horizon=intfield("horizon"),
            n_actions=intfield("n_actions"),
            n_observations=intfield("n_observations"),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}:{head.line}: {exc}") from None
    name = fields["name"][0]
    class_tag = fields["class_tag"][0]
    form = fields["transition_form"][0]
    if form not in ("joint", "product"):
        raise ConfigError(
            f"{source}:{fields['transition_form'][1]}: bad transition_form {form!r}"
        )

    by_name = {}
    for sec in sections[1:]:
        by_name.setdefault(sec.name, []).append(sec)

    def sole(name_):
        secs = by_name.get(name_, [])
        if len(secs) != 1:
            raise ConfigError(
                f"{source}:{head.line}: expected exactly one [{name_}] section, "
                f"found {len(secs)}"
            )
        return secs[0]

    sv_sec = sole("state-vectors") if "state-vectors" in by_name else None
    n_states = dims.n_states if sv_sec is None else len(sv_sec.rows)
    H, A, V = dims.horizon, dims.n_actions, dims.alphabet_size
    shapes = {
        "state-vector": (n_states, dims.d),
        "transition": (H - 1, n_states, A, n_states) if form == "joint"
        else (H - 1, dims.d, V, A, V),
        "reward": (H, n_states, A),
    }
    if by_name.get("emissions"):
        shapes["emission"] = (dims.n_observations, dims.n_hidden)
    for label, shape in shapes.items():
        if math.prod(shape) > MAX_TABLE_CELLS:
            raise ConfigError(
                f"{source}:{head.line}: model {name!r} needs a {shape} {label} "
                f"table, over the cap of {MAX_TABLE_CELLS} cells"
            )

    if sv_sec is None:
        state_vectors = canonical_state_vectors(dims)
    else:
        state_vectors = _indexed_rows(
            sv_sec, "s", n_states, dims.d, source, as_int=True
        )

    init_sec = sole("initial")
    if len(init_sec.rows) != 1 or init_sec.rows[0][0] != "p":
        raise ConfigError(
            f"{source}:{init_sec.line}: [initial] needs a single row 'p = ...'"
        )
    initial = _row_floats(init_sec.rows[0][1], source, init_sec.rows[0][2])
    if len(initial) != n_states:
        raise ConfigError(
            f"{source}:{init_sec.rows[0][2]}: initial has {len(initial)} entries, "
            f"want {n_states}"
        )

    joint = product = None
    if form == "joint":
        joint = np.zeros((H - 1, n_states, A, n_states))
        ranges = {"h": range(1, H), "a": range(A)}
        for (h, a), sec in _keyed_sections(by_name, "transitions", ranges, source, head):
            joint[h - 1, :, a, :] = _indexed_rows(sec, "s", n_states, n_states, source)
    else:
        product = np.zeros((H - 1, dims.d, V, A, V))
        ranges = {"h": range(1, H), "i": range(dims.d), "a": range(A)}
        for (h, i, a), sec in _keyed_sections(
            by_name, "sub-transitions", ranges, source, head
        ):
            product[h - 1, i, :, a, :] = _indexed_rows(sec, "v", V, V, source)

    rewards = np.zeros((H, n_states, A))
    ranges = {"h": range(1, H + 1)}
    for (h,), sec in _keyed_sections(by_name, "rewards", ranges, source, head):
        rewards[h - 1] = _indexed_rows(sec, "s", n_states, A, source)

    emissions = None
    if by_name.get("emissions"):
        emissions = {}
        for sec in by_name["emissions"]:
            h = _int_arg(sec, "h", source)
            if "q" not in sec.args:
                raise ConfigError(f"{source}:{sec.line}: [emissions] needs q=")
            try:
                q = tuple(int(tok) for tok in sec.args["q"].split(","))
            except ValueError:
                raise ConfigError(
                    f"{source}:{sec.line}: bad query list q={sec.args['q']!r}"
                ) from None
            if (h, q) in emissions:
                raise ConfigError(f"{source}:{sec.line}: duplicate emissions h={h} q={q}")
            emissions[(h, q)] = _indexed_rows(
                sec, "o", dims.n_observations, dims.n_hidden, source
            )

    model = EnvModel(
        name=name,
        dims=dims,
        class_tag=class_tag,
        initial=initial,
        rewards=rewards,
        state_vectors=np.asarray(state_vectors, dtype=np.int64),
        joint=joint,
        product=product,
        emissions=emissions,
    )
    try:
        model.validate()
    except ValueError as exc:
        raise ConfigError(f"{source}:{head.line}: invalid model {name!r}: {exc}") from None
    return model


def loads_model(text, source="<string>"):
    """Parse text holding exactly one model."""
    models = loads_candidates(text, source)
    if len(models) != 1:
        raise ConfigError(f"{source}:1: expected exactly one model, found {len(models)}")
    return models[0]


def loads_candidates(text, source="<string>"):
    """Parse a file of one or more models, in file order."""
    sections = parse_sections(text, source)
    if not sections:
        raise ConfigError(f"{source}:1: no sections found")
    if sections[0].name != "model":
        raise ConfigError(
            f"{source}:{sections[0].line}: file must start with a [model] section"
        )
    groups = []
    for sec in sections:
        if sec.name == "model":
            groups.append([sec])
        else:
            groups[-1].append(sec)
    return [_build_model(group, source) for group in groups]


def dumps_candidates(models):
    return "\n".join(dumps_model(m) for m in models)


def dump_model(m, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(m) + "\n")


def dump_candidates(models, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_candidates(models) + "\n")


def load_model(path):
    """Read one model file; a file that is not UTF-8 raises a ValueError
    that names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return loads_model(text, source=str(path))


def load_candidates(path):
    with open(path, encoding="utf-8") as fh:
        return loads_candidates(fh.read(), source=str(path))
