"""coverlab: a finite laboratory for cover spaces, completions, and frames,
plus exact real arithmetic on rational intervals.

Importing the package executes none of its modules.  Each library module is
registered in ``sys.modules`` through ``importlib.util.LazyLoader`` and runs
at its first attribute access, so a command executes only the modules it
reads.  The names of ``_EXPORTS`` are served from their modules by PEP 562's
``__getattr__``.  ``cli`` is not registered: ``python -m coverlab.cli`` runs
it as ``__main__``.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names the package re-exports from it
    "finkernel": "Carrier CarrierMismatchError Cover FiniteCoverSpace Subset canonicalize "
                 "discrete indiscrete meet product refines space_from_cover space_from_masks "
                 "transfer",
    "coverspace": "FiniteTopology RegularityError SubbasePresentation close_subbase "
                  "from_topology is_cauchy is_cover_map is_embedding is_proper "
                  "is_strongly_regular rather_below regular_reflection satisfies_cr "
                  "strongly_rather_below to_topology",
    "cauchy": "CompletionSpace PrincipalFilter completion dense_lift filters_equivalent "
              "finite_subcover is_cauchy_filter is_complete is_separated point_equiv "
              "regular_representative strong_completion",
    "locales": "FiniteLocale LocalePoint basic_open locale_of_space locale_points point_space "
               "verify_equivalence",
    "xreal": "ConvergentSeq CutLocator Real RInterval add cut_of_real epsilon_net "
             "find_apartness inv limit limit_at_zero mul neg real_of_cut real_of_rat sub "
             "sum_series uniform_convergence_check",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_MODULE_OF]


def _register(name: str):
    """coverlab.name, registered to execute at its first attribute access
    unless it is imported already: a second module object would hold
    classes distinct from the first's."""
    full = f"{__name__}.{name}"
    if full not in sys.modules:
        spec = find_spec(full)
        spec.loader = LazyLoader(spec.loader)
        sys.modules[full] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
    return sys.modules[full]


for _name in (*_EXPORTS, "extnat", "realexpr", "spacefile"):
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(globals()[_MODULE_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
