"""Quickstart: load a knowledge base and run queries through the PDBM stack.

Run with::

    python examples/quickstart.py
"""

from repro import KnowledgeBase, PrologMachine
from repro.terms import term_to_string

FAMILY = """
% Facts and rules live together, in the order you write them.
parent(tom, bob).    parent(tom, liz).
parent(bob, ann).    parent(bob, pat).
parent(pat, jim).

grand(X, Z) :- parent(X, Y), parent(Y, Z).

anc(X, Y) :- parent(X, Y).
anc(X, Z) :- parent(X, Y), anc(Y, Z).
"""


def main() -> None:
    kb = KnowledgeBase()
    kb.consult_text(FAMILY)
    machine = PrologMachine(kb)

    print("Who are tom's grandchildren?")
    for solution in machine.solve_text("grand(tom, Who)"):
        print("  Who =", term_to_string(solution["Who"]))

    print("\nWho are jim's ancestors?")
    for solution in machine.solve_text("anc(A, jim)"):
        print("  A =", term_to_string(solution["A"]))

    print("\nLists and arithmetic work too:")
    kb.consult_text(
        "sum_list([], 0). sum_list([H|T], S) :- sum_list(T, R), S is H + R."
    )
    for solution in machine.solve_text("sum_list([1, 2, 3, 4], S)"):
        print("  S =", term_to_string(solution["S"]))

    print("\nEvery clause was compiled to the PIF format behind the scenes:")
    store = kb.store(("anc", 2))
    record = store.clause_file.record_bytes(1)
    print(f"  anc/2 clause 2 -> {len(record)} bytes of PIF")
    print(f"  decoded back  -> {store.clause_file.decode_clause(1)}")


if __name__ == "__main__":
    main()
