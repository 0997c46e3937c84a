"""Output checks for the CSVs the timed commands write.

At the default seed every CSV is compared with the reference copy under
reference/<workload>/: integers and text cells must match exactly, float
cells within a per-column tolerance. The tolerances let a change of float
summation order pass (ulp-level drift, or one image flipping class in an
accuracy cell) and catch a wrong filter, attack or certificate. At any
seed the structural invariants below must hold as well. Comment lines
(the `# config sha256=...` provenance line) are not compared by value;
byte-identity with the reference is only tallied.
"""

import csv
import io
import math

# Float tolerances as (absolute, relative); the larger of the two applies.
CORRELATION_TOL = (1e-5, 0.0)  # cells are printed with 6 decimals
CERTIFY_TOL = (1e-9, 1e-5)  # margins, Lipschitz factors, radii, pair bounds
LOSS_TOL = (0.0, 1e-4)  # mean training loss per epoch


def csv_kind(filename):
    """'train', 'ensemble-eval', 'certify' or 'correlate' from a CSV file name."""
    return filename.split("_", 1)[0]


def parse(text):
    """(header, rows) of a CSV body, skipping '#' comment lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return (rows[0], rows[1:]) if rows else ([], [])


def _number(cell):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def _tolerance(kind, column, n_images):
    if kind == "ensemble-eval":
        # accuracy cells are k / n_images: allow one image to change class
        return (1.0 / n_images + 1e-9, 0.0)
    if kind == "certify":
        return CERTIFY_TOL
    if kind == "correlate":
        return CORRELATION_TOL
    if kind == "train" and column == "mean_loss":
        return LOSS_TOL
    return (0.0, 0.0)


def compare(filename, got, ref, n_images):
    """Mismatches of CSV text `got` against reference text `ref`."""
    kind = csv_kind(filename)
    g_head, g_rows = parse(got)
    r_head, r_rows = parse(ref)
    if g_head != r_head:
        return [f"{filename}: header {g_head} != reference {r_head}"]
    if len(g_rows) != len(r_rows):
        return [f"{filename}: {len(g_rows)} rows != reference {len(r_rows)}"]
    problems = []
    for i, (g_row, r_row) in enumerate(zip(g_rows, r_rows)):
        if len(g_row) != len(r_row):
            problems.append(f"{filename}: row {i + 1} has {len(g_row)} cells, reference {len(r_row)}")
            continue
        for column, g, r in zip(r_head, g_row, r_row):
            gn, rn = _number(g), _number(r)
            if gn is None or rn is None or (isinstance(gn, int) and isinstance(rn, int)):
                ok = g == r
            else:
                atol, rtol = _tolerance(kind, column, n_images)
                ok = abs(gn - rn) <= max(atol, rtol * abs(rn))
            if not ok:
                problems.append(f"{filename}: row {i + 1} {column}={g}, reference {r}")
    return problems


def invariants(filename, text):
    """Properties every seed's output must have."""
    kind = csv_kind(filename)
    head, rows = parse(text)
    problems = []
    if not rows:
        return [f"{filename}: no data rows"]
    if kind == "ensemble-eval":
        for row in rows:
            for column, cell in zip(head[1:], row[1:]):
                if not 0.0 <= float(cell) <= 1.0:
                    problems.append(f"{filename}: epsilon {row[0]} {column}={cell} outside [0, 1]")
    elif kind == "correlate":
        names = head[1:]
        rho = [[float(c) for c in row[1:]] for row in rows]
        if [row[0] for row in rows] != names or any(len(r) != len(names) for r in rho):
            return [f"{filename}: correlation matrix is not square over {names}"]
        for i in range(len(names)):
            if rho[i][i] != 1.0:
                problems.append(f"{filename}: diagonal {names[i]}={rho[i][i]} != 1")
            for j in range(i):
                if rho[i][j] != rho[j][i]:
                    problems.append(f"{filename}: rho[{names[i]},{names[j]}] not symmetric")
    elif kind == "train":
        col = head.index("mean_loss")
        for row in rows:
            if not (math.isfinite(float(row[col])) and float(row[col]) > 0):
                problems.append(f"{filename}: mean_loss {row[col]} not a positive finite number")
    elif kind == "certify":
        for row in rows:
            for column, cell in zip(head, row):
                if column in ("radius", "bound") and not float(cell) >= 0:
                    problems.append(f"{filename}: {column}={cell} negative")
                if column == "lipschitz" and not float(cell) > 0:
                    problems.append(f"{filename}: lipschitz={cell} not positive")
    return problems
