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
"""

from __future__ import annotations

import configparser
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


def parse_model_text(text: str, name: str = "model") -> ModelFile:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text, source=name)
    except configparser.Error as exc:
        raise ModelFileError(f"cannot parse {name}: {exc}") from exc
    for section in cp.sections():
        if section not in KNOWN_SECTIONS:
            raise ModelFileError(f"unknown section [{section}]")
    if "ode" not in cp:
        raise ModelFileError("missing [ode] section")

    ode_sec = cp["ode"]
    _check_keys(ode_sec, {"n", "v"}, "ode")
    try:
        n = int(ode_sec.get("n", ""))
    except ValueError:
        raise ModelFileError("[ode] n must be an integer") from None
    if n < 1:
        raise ModelFileError("[ode] n must be positive")
    ctx = _context(n)
    v_items = _split_list(ode_sec.get("v", ""), "[ode] v")
    if len(v_items) != n:
        raise ModelFileError(f"[ode] v has {len(v_items)} components, expected {n}")
    v = [_parse(item, ctx, "[ode] v") for item in v_items]

    alpha = None
    if "anchor" in cp:
        upper, keys = {}, {}
        for key, value in cp["anchor"].items():
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
    if "characteristic" in cp:
        _check_keys(cp["characteristic"], {"f"}, "characteristic")
        f = _parse(cp["characteristic"].get("f", ""), ctx, "[characteristic] f")

    w = None
    if "symmetry" in cp:
        _check_keys(cp["symmetry"], {"w"}, "symmetry")
        items = _split_list(cp["symmetry"].get("w", ""), "[symmetry] w")
        if len(items) != n:
            raise ModelFileError(f"[symmetry] w has {len(items)} components, expected {n}")
        w = [_parse(item, ctx, "[symmetry] w") for item in items]

    hamiltonian = None
    if "hamiltonian" in cp:
        _check_keys(cp["hamiltonian"], {"H"}, "hamiltonian")
        hamiltonian = _parse(cp["hamiltonian"].get("H", ""), ctx, "[hamiltonian] H")

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
