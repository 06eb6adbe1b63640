"""Model definition files for ODE systems.

Format (INI-style, expression grammar from the kernel):

    [ode]
    n = 2
    v = [-x2, x1]

    [anchor]
    alpha_12 = 1

    [characteristic]
    f = (x1^2 + x2^2)/2

    [symmetry]
    w = [x2, -x1]

    [hamiltonian]
    H = (x1^2 + x2^2)/2

Fields are x1..xn, the independent variable is t.  Printing a parsed file
with format_model and parsing it back is the identity on canonical files.

The layout is read in one pass (_read_sections), and it accepts this INI
subset: `[section]` header lines; `key = value` or `key: value` lines, cut
at the first `=` or `:`; comment lines whose first non-blank character is
`#` or `;`; blank lines; and continuation lines, indented deeper than the
key line they extend, joined to its value with a newline.  There are no
inline comments: a `#` after a value is part of it.  A section or a key
named twice in a section, and any other line, is a ModelFileError with its
line number.  On its accepted files the reader gives the same sections,
keys and values as configparser.ConfigParser(interpolation=None,
strict=True) with case-sensitive keys, and it rejects every file that
parser rejects.  It diverges on purpose in two places:
- `[DEFAULT]` is a section like any other, and so an unknown one;
  configparser copies its keys into every section;
- a line that starts with `[` is a header and must end with `]`;
  configparser drops the text after the last `]` (`[ode] n = 2` is the
  header `ode`) and reads `[x = 1` as the key `[x`.
"""

from __future__ import annotations

import re

from . import expr as ex
from . import ode
from .parser import ParseError, VarContext, parse_expr

KNOWN_SECTIONS = ("ode", "anchor", "characteristic", "symmetry", "hamiltonian")


class ModelFileError(ex.ExprError):
    pass


class ModelFile:
    def __init__(self, n, v, alpha=None, f=None, w=None, hamiltonian=None, name="model"):
        self.n = n
        self.system = ode.OdeSystem(v)
        self.alpha = alpha
        self.f = f
        self.w = w
        self.hamiltonian = hamiltonian
        self.name = name

    def context(self) -> VarContext:
        return _context(self.n)


def _context(n: int) -> VarContext:
    return VarContext(indep=(ode.TIME,), fields=tuple(ode.field_name(i) for i in range(n)))


def _split_list(text: str, where: str):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ModelFileError(f"{where}: expected a bracketed list, got {text!r}")
    inner = text[1:-1]
    parts = []
    depth = 0
    current = []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current or parts:
        parts.append("".join(current))
    return [p.strip() for p in parts]


_ALPHA_KEY = re.compile(r"alpha_([0-9]+)_([0-9]+)$|alpha_([0-9])([0-9])$")


def parse_model(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_model_text(text, name=str(path))


def _read_sections(text: str, name: str):
    """{section: {key: value}} of the INI subset in the module docstring,
    in file order, read in one pass over the lines."""
    sections = {}
    section = key = None  # the open section's keys; the key a continuation extends
    indent = 0  # indentation of the last header or key line
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            if not stripped and key is not None:
                section[key].append("")  # kept only inside a value
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            section[key].append(stripped)
            continue
        indent, where = depth, f"{name}, line {number}"
        if stripped[0] == "[":
            header = stripped[1:-1]
            if not header or stripped[-1] != "]":
                raise ModelFileError(f"{where}: expected a [section] header, got {stripped!r}")
            if header in sections:
                raise ModelFileError(f"{where}: section [{header}] is repeated")
            section = sections[header] = {}
            key = None
            continue
        cut = min((i for i in (stripped.find("="), stripped.find(":")) if i >= 0), default=0)
        key = stripped[:cut].rstrip()
        if section is None or not key:
            what = "a [section] header" if section is None else "key = value"
            raise ModelFileError(f"{where}: expected {what}, got {stripped!r}")
        if key in section:
            raise ModelFileError(f"{where}: key {key!r} is repeated in its section")
        section[key] = [stripped[cut + 1 :].strip()]
    return {
        header: {k: "\n".join(lines).rstrip() for k, lines in keys.items()}
        for header, keys in sections.items()
    }


def parse_model_text(text: str, name: str = "model") -> ModelFile:
    sections = _read_sections(text, name)
    for section in sections:
        if section not in KNOWN_SECTIONS:
            raise ModelFileError(f"unknown section [{section}]")
    if "ode" not in sections:
        raise ModelFileError("missing [ode] section")

    ode_sec = sections["ode"]
    _check_keys(ode_sec, {"n", "v"}, "ode")
    try:
        n = int(ode_sec.get("n", ""))
    except ValueError:
        raise ModelFileError("[ode] n must be an integer") from None
    if n < 1:
        raise ModelFileError("[ode] n must be positive")
    v_items = _split_list(ode_sec.get("v", ""), "[ode] v")
    if len(v_items) != n:  # before the n names of the context are built
        raise ModelFileError(f"[ode] v has {len(v_items)} components, expected {n}")
    ctx = _context(n)
    v = [_parse(item, ctx, "[ode] v") for item in v_items]

    alpha = None
    if "anchor" in sections:
        upper, keys = {}, {}
        for key, value in sections["anchor"].items():
            m = _ALPHA_KEY.match(key)
            if not m:
                raise ModelFileError(
                    f"[anchor] keys must look like alpha_12 or alpha_1_2, got {key!r}"
                )
            groups = [g for g in m.groups() if g is not None]
            i, j = int(groups[0]), int(groups[1])
            if not (1 <= i < j <= n):
                raise ModelFileError(f"[anchor] {key}: need 1 <= i < j <= n")
            if (i, j) in keys:
                raise ModelFileError(f"[anchor] {keys[i, j]} and {key} both set alpha_{i}_{j}")
            keys[i, j] = key
            upper[(i - 1, j - 1)] = _parse(value, ctx, f"[anchor] {key}")
        alpha = ode.Bivector(n, upper)

    f = None
    if "characteristic" in sections:
        _check_keys(sections["characteristic"], {"f"}, "characteristic")
        f = _parse(sections["characteristic"].get("f", ""), ctx, "[characteristic] f")

    w = None
    if "symmetry" in sections:
        _check_keys(sections["symmetry"], {"w"}, "symmetry")
        items = _split_list(sections["symmetry"].get("w", ""), "[symmetry] w")
        if len(items) != n:
            raise ModelFileError(f"[symmetry] w has {len(items)} components, expected {n}")
        w = [_parse(item, ctx, "[symmetry] w") for item in items]

    hamiltonian = None
    if "hamiltonian" in sections:
        _check_keys(sections["hamiltonian"], {"H"}, "hamiltonian")
        hamiltonian = _parse(sections["hamiltonian"].get("H", ""), ctx, "[hamiltonian] H")

    return ModelFile(n, v, alpha=alpha, f=f, w=w, hamiltonian=hamiltonian, name=name)


def _check_keys(section, allowed, name):
    extra = set(section.keys()) - allowed
    if extra:
        raise ModelFileError(f"unknown keys in [{name}]: {sorted(extra)}")


def _parse(text, ctx, where):
    if not text.strip():
        raise ModelFileError(f"{where}: empty expression")
    try:
        return parse_expr(text, ctx)
    except ParseError as exc:
        raise ModelFileError(f"{where}: {exc}") from exc


def format_model(model: ModelFile) -> str:
    """Canonical rendering; parse(format(m)) reproduces m."""
    out = ["[ode]", f"n = {model.n}"]
    vs = ", ".join(ex.to_text(c) for c in model.system.v)
    out.append(f"v = [{vs}]")
    if model.alpha is not None and not model.alpha.is_zero():
        out.append("")
        out.append("[anchor]")
        for (i, j), value in sorted(model.alpha.upper.items()):
            out.append(f"alpha_{i + 1}_{j + 1} = {ex.to_text(value)}")
    if model.f is not None:
        out.append("")
        out.append("[characteristic]")
        out.append(f"f = {ex.to_text(model.f)}")
    if model.w is not None:
        out.append("")
        out.append("[symmetry]")
        ws = ", ".join(ex.to_text(c) for c in model.w)
        out.append(f"w = [{ws}]")
    if model.hamiltonian is not None:
        out.append("")
        out.append("[hamiltonian]")
        out.append(f"H = {ex.to_text(model.hamiltonian)}")
    return "\n".join(out) + "\n"
