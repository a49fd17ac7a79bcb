"""CLARE — a type-driven engine for Prolog clause retrieval over a large
knowledge base.

Python reproduction of Wong & Williams (ISCA 1989).  The package models the
full PDBM stack: Prolog terms and unification, the PIF compiled-clause
format, the two CLARE filter stages (FS1 superimposed-codeword index search
and FS2 partial test unification), the disk subsystem, disk-resident clause
storage, the Clause Retrieval Server, and an integrated compiled Prolog engine.

Quickstart::

    from repro import KnowledgeBase, PrologMachine

    kb = KnowledgeBase()
    kb.consult_text("parent(tom, bob). parent(bob, ann).")
    kb.consult_text("grand(X, Z) :- parent(X, Y), parent(Y, Z).")
    machine = PrologMachine(kb)
    for solution in machine.solve_text("grand(tom, Who)"):
        print(solution["Who"])
"""

__version__ = "1.0.0"

# Lazy attribute loading (PEP 562) keeps `import repro.terms` cheap and free
# of cross-subpackage import cycles.
_EXPORTS = {
    "KnowledgeBase": ("repro.storage", "KnowledgeBase"),
    "Residency": ("repro.storage", "Residency"),
    "PrologMachine": ("repro.engine", "PrologMachine"),
    "ClauseRetrievalServer": ("repro.crs", "ClauseRetrievalServer"),
    "SearchMode": ("repro.crs", "SearchMode"),
    "SecondStageFilter": ("repro.fs2", "SecondStageFilter"),
    "FirstStageFilter": ("repro.scw", "FirstStageFilter"),
    "CodewordScheme": ("repro.scw", "CodewordScheme"),
    "DiskSim": ("repro.disk", "DiskSim"),
    "SymbolTable": ("repro.pif", "SymbolTable"),
    "PIFEncoder": ("repro.pif", "PIFEncoder"),
    "PIFDecoder": ("repro.pif", "PIFDecoder"),
    "read_term": ("repro.terms", "read_term"),
    "read_program": ("repro.terms", "read_program"),
    "term_to_string": ("repro.terms", "term_to_string"),
    "unify": ("repro.unify", "unify"),
    "unifiable": ("repro.unify", "unifiable"),
    "partial_match": ("repro.unify", "partial_match"),
    "MatchLevel": ("repro.unify", "MatchLevel"),
    "table1": ("repro.fs2", "table1"),
    "CLARE": ("repro.clare", "CLARE"),
    "save_kb": ("repro.storage", "save_kb"),
    "load_kb": ("repro.storage", "load_kb"),
    "format_query_report": ("repro.report", "format_query_report"),
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
