"""Ordinal combinatorics and exact game determinacy on well-founded trees.

Subpackages by topic: ``ordinal`` (Cantor-normal-form arithmetic below
epsilon_0), ``btree`` (finite B-trees and the derivative calculus),
``families`` (the T and Gamma tree families with exact branch weights),
``derivation`` (derivation indices and Cantor-Bendixson closed forms),
``games`` (exact determinacy solver with the weighted functional payoff),
``cli`` (the ``ordgames`` command).

The names below are re-exported lazily (PEP 562): a submodule is imported
when one of its names, or its own name, is first asked for, so that each
CLI verb loads only the layers it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "btree": "FiniteBTree NodePath path_from_text path_to_text verify_monotone_map",
    "derivation": "INFINITY DerivationSystem cb_index cb_stage cb_step derivation_index dz_bound",
    "families": "GammaFamily TFamily TruncationBudget budget_from_json family_from_json"
    " family_to_json gamma_family make_family monotone_embedding t_family",
    "games": "PAYOFF_SZLENK GameSpec ModelSpace Strategy brute_force_winner build_szlenk_game"
    " complete_substrategy eval_payoff extract_collections solve verify_strategy",
    "ordinal": "OMEGA ONE ZERO Ordinal OrdinalError compare omega_mul omega_pow"
    " quot_rem_omega_pow subtract_left",
}
# each name -> the submodule that defines it; a submodule's name -> itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in [module, *names.split()]}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # binds the submodule here too
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
