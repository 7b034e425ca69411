"""The package's public names, and invariants of its source."""

import ast
from pathlib import Path

import groupcut


def test_source_has_no_assert_statement():
    # python -O strips asserts, so an invariant must raise instead
    src = Path(groupcut.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_public_names_are_pinned():
    """The package's __all__; a new public name needs an edit here."""
    assert groupcut.__all__ == [
        "QNum", "Rat", "parse_qnum", "format_qnum",
        "BreakpointRow", "PwlFunction", "MINUS", "AT", "PLUS",
        "parse_text", "to_text", "save", "load",
        "Interval", "Face2D", "Complex2D", "n_f",
        "ADDITIVE", "LIMIT_ADDITIVE", "NON_ADDITIVE",
        "additive_face_report", "classify_face", "e_containment",
        "minimality_test", "slack_at",
        "covering_components",
        "LinearSystem", "build_system", "drop_one_ranks",
        "lipschitz_epsilon", "scaling_epsilon", "verify_effective",
        "catalog_names", "get", "kzh_function", "kzh_params",
        "lifted_function", "psi_function", "psi_prime_function",
        "ClaimReport", "verify_all", "verify_kzh_claim_slacks",
        "verify_kzh_perturbation_rank", "verify_lifted",
        "verify_psi_separation",
        "render_sidecar", "render_svg",
    ]
    assert all(hasattr(groupcut, name) for name in groupcut.__all__)
