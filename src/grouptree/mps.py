"""MPS and LP text serialization of models, plus an MPS reader.

The writer emits a fixed layout (16-character name fields, one coefficient
per line, integrality via INTORG/INTEND markers, explicit OBJSENSE) that the
reader accepts back verbatim; reading other producers' MPS files is
best-effort.  Output is byte-deterministic for equal models.
"""

from __future__ import annotations

import math

from .errors import MpsParseError, NameOverflowError
from .model import Constraint, MilpModel, Variable

NAME_LIMIT = 16
OBJ_ROW = "OBJ"

_SENSE_TO_ROW = {"<=": "L", "=": "E", ">=": "G"}
_ROW_TO_SENSE = {"L": "<=", "E": "=", "G": ">="}


def _fmt(value: float) -> str:
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _check_name(name: str) -> str:
    if len(name) > NAME_LIMIT:
        raise NameOverflowError(
            f"name {name!r} exceeds the {NAME_LIMIT}-character field"
        )
    if not name or any(ch.isspace() for ch in name):
        raise NameOverflowError(f"name {name!r} is not a valid identifier")
    return name


def export_mps(model: MilpModel) -> str:
    """Serialize a model; deterministic byte-for-byte for equal models."""
    if any(ch.isspace() for ch in model.name):
        raise NameOverflowError(f"model name {model.name!r} contains whitespace")
    out = []
    out.append(f"NAME          {model.name}")
    out.append("OBJSENSE")
    out.append(f"    {model.sense.upper()}")
    out.append("ROWS")
    out.append(f" N  {OBJ_ROW}")
    for con in model.constraints:
        out.append(f" {_SENSE_TO_ROW[con.sense]}  {_check_name(con.name)}")

    obj_coef = {name: coef for name, coef in model.objective}
    by_var: dict[str, list[tuple[str, float]]] = {v.name: [] for v in model.variables}
    for con in model.constraints:
        for name, coef in con.coeffs:
            by_var[name].append((con.name, coef))

    out.append("COLUMNS")
    integer_open = False
    marker_no = 0
    for var in model.variables:
        _check_name(var.name)
        if var.is_integer != integer_open:
            tag = "INTORG" if var.is_integer else "INTEND"
            out.append(f"    MARKER{marker_no:<10}'MARKER'                 '{tag}'")
            marker_no += 1
            integer_open = var.is_integer
        entries = []
        if var.name in obj_coef:
            entries.append((OBJ_ROW, obj_coef[var.name]))
        entries.extend(by_var[var.name])
        if not entries:
            entries.append((OBJ_ROW, 0.0))
        for row, coef in entries:
            out.append(f"    {var.name:<16}{row:<16}{_fmt(coef)}")
    if integer_open:
        out.append(f"    MARKER{marker_no:<10}'MARKER'                 'INTEND'")

    out.append("RHS")
    for con in model.constraints:
        if con.rhs != 0.0:
            out.append(f"    RHS             {con.name:<16}{_fmt(con.rhs)}")

    out.append("BOUNDS")
    for var in model.variables:
        if var.lower != 0.0:
            out.append(f" LO BND             {var.name:<16}{_fmt(var.lower)}")
        if var.upper != float("inf"):
            out.append(f" UP BND             {var.name:<16}{_fmt(var.upper)}")

    out.append("ENDATA")
    return "\n".join(out) + "\n"


def parse_mps(text: str) -> MilpModel:
    """Read MPS text back into a model.

    Accepts the writer's layout exactly; other MPS files are parsed on a
    best-effort basis (no RANGES, no free or semicontinuous variables).
    Every number must be finite, except ``UP ... inf`` for no upper bound.
    A row name declared twice, or a (column, row) entry given twice, is an
    error.
    """
    name = "PARSED"
    sense = "min"  # MPS convention when no OBJSENSE is given
    section = None
    obj_row = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    row_coeffs: dict[str, list[tuple[str, float]]] = {}
    obj_coeffs: list[tuple[str, float]] = []
    entries: set[tuple[str, str]] = set()
    var_order: list[str] = []
    var_set: set[str] = set()
    var_integer: dict[str, bool] = {}
    var_lower: dict[str, float] = {}
    var_upper: dict[str, float] = {}
    rhs: dict[str, float] = {}
    integer_open = False
    pending_objsense = False
    saw_endata = False

    def fail(line_no, msg):
        raise MpsParseError(msg, line_no=line_no)

    def number(line_no, text, what, no_limit=False):
        """A finite float, or +inf where ``no_limit`` (an UP bound without a limit)."""
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) or (no_limit and value == math.inf)):
            fail(line_no, f"bad {what} {text!r}")
        return value

    def objective_sense(line_no, word):
        s = word.lower()
        if s not in ("max", "min", "maximize", "minimize"):
            fail(line_no, f"bad objective sense {word!r}")
        return "max" if s.startswith("max") else "min"

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        head = raw[:1] != " "
        fields = raw.split()
        if head:
            kw = fields[0].upper()
            if kw == "NAME":
                name = fields[1] if len(fields) > 1 else "PARSED"
            elif kw == "OBJSENSE":
                pending_objsense = len(fields) == 1
                if not pending_objsense:
                    sense = objective_sense(line_no, fields[1])
            elif kw in ("ROWS", "COLUMNS", "RHS", "BOUNDS"):
                section = kw
            elif kw == "RANGES":
                fail(line_no, "RANGES sections are not supported")
            elif kw == "ENDATA":
                saw_endata = True
                break
            else:
                fail(line_no, f"unknown section {kw!r}")
            continue
        if pending_objsense:
            sense = objective_sense(line_no, fields[0])
            pending_objsense = False
            continue
        if section == "ROWS":
            if len(fields) != 2:
                fail(line_no, "ROWS lines need a type and a name")
            rtype, rname = fields[0].upper(), fields[1]
            if rname in row_sense or rname == obj_row:
                fail(line_no, f"row {rname!r} is declared twice")
            if rtype == "N":
                if obj_row is None:
                    obj_row = rname
                continue
            if rtype not in _ROW_TO_SENSE:
                fail(line_no, f"unknown row type {rtype!r}")
            row_sense[rname] = _ROW_TO_SENSE[rtype]
            row_order.append(rname)
            row_coeffs[rname] = []
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1] == "'MARKER'":
                tag = fields[-1].strip("'")
                if tag == "INTORG":
                    integer_open = True
                elif tag == "INTEND":
                    integer_open = False
                else:
                    fail(line_no, f"unknown marker {tag!r}")
                continue
            if len(fields) < 3 or len(fields) % 2 == 0:
                fail(line_no, "COLUMNS lines need column then row/value pairs")
            col = fields[0]
            if col not in var_set:
                var_set.add(col)
                var_order.append(col)
                var_integer[col] = integer_open
            for t in range(1, len(fields), 2):
                row, val_s = fields[t], fields[t + 1]
                val = number(line_no, val_s, "coefficient")
                if (col, row) in entries:
                    fail(line_no, f"column {col!r} has two entries in row {row!r}")
                entries.add((col, row))
                if row == obj_row:
                    if val != 0.0:
                        obj_coeffs.append((col, val))
                elif row in row_coeffs:
                    row_coeffs[row].append((col, val))
                else:
                    fail(line_no, f"unknown row {row!r}")
        elif section == "RHS":
            if len(fields) < 3 or len(fields) % 2 == 0:
                fail(line_no, "RHS lines need a label then row/value pairs")
            for t in range(1, len(fields), 2):
                row, val_s = fields[t], fields[t + 1]
                if row not in row_sense and row != obj_row:
                    fail(line_no, f"unknown row {row!r}")
                rhs[row] = number(line_no, val_s, "rhs")
        elif section == "BOUNDS":
            if len(fields) < 3:
                fail(line_no, "BOUNDS lines need a type, label, and column")
            btype, col = fields[0].upper(), fields[2]
            if col not in var_set:
                fail(line_no, f"bound for unknown column {col!r}")
            if btype in ("UP", "LO", "FX"):
                if len(fields) < 4:
                    fail(line_no, f"{btype} bounds need a value")
                value = number(line_no, fields[3], "bound", no_limit=btype == "UP")
            if btype == "UP":
                var_upper[col] = value
            elif btype == "LO":
                var_lower[col] = value
            elif btype == "FX":
                var_lower[col] = var_upper[col] = value
            elif btype == "BV":
                var_integer[col] = True
                var_lower[col], var_upper[col] = 0.0, 1.0
            else:
                fail(line_no, f"unsupported bound type {btype!r}")
        elif section is None:
            fail(line_no, "data before any section header")
    if not saw_endata:
        raise MpsParseError("missing ENDATA", line_no=None)
    if obj_row is None:
        raise MpsParseError("no objective (N) row", line_no=None)

    variables = [
        Variable(
            name=vname,
            lower=var_lower.get(vname, 0.0),
            upper=var_upper.get(vname, float("inf")),
            is_integer=var_integer[vname],
        )
        for vname in var_order
    ]
    constraints = [
        Constraint(
            name=rname,
            coeffs=tuple(row_coeffs[rname]),
            sense=row_sense[rname],
            rhs=rhs.get(rname, 0.0),
        )
        for rname in row_order
    ]
    return MilpModel(
        name=name,
        sense=sense,
        variables=variables,
        constraints=constraints,
        objective=tuple(obj_coeffs),
    )


def export_lp(model: MilpModel) -> str:
    """LP-format text for a model; write-only."""
    out = []
    out.append("\\ written by grouptree")
    out.append("Maximize" if model.sense == "max" else "Minimize")
    out.append(" obj: " + _linear_expr(model.objective))
    out.append("Subject To")
    for con in model.constraints:
        op = {"<=": "<=", "=": "=", ">=": ">="}[con.sense]
        out.append(f" {con.name}: {_linear_expr(con.coeffs)} {op} {_fmt(con.rhs)}")
    out.append("Bounds")
    for var in model.variables:
        up = "+inf" if var.upper == float("inf") else _fmt(var.upper)
        out.append(f" {_fmt(var.lower)} <= {var.name} <= {up}")
    generals = [v.name for v in model.variables if v.is_integer]
    if generals:
        out.append("General")
        for t in range(0, len(generals), 8):
            out.append(" " + " ".join(generals[t : t + 8]))
    out.append("End")
    return "\n".join(out) + "\n"


def _linear_expr(coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for t, (name, coef) in enumerate(coeffs):
        mag = _fmt(abs(coef))
        sign = "-" if coef < 0 else ("+" if t else "")
        parts.append(f"{sign} {mag} {name}" if sign else f"{mag} {name}")
    return " ".join(parts)
