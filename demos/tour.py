"""A quick tour: normal forms, conjugacy with witnesses, centralizers,
and double cosets, all on the path a - b - c.

Run as: python3 demos/tour.py
"""

from raag.conjugacy import centralizer, conjugate
from raag.cosets import CosetFactors, in_double_coset
from raag.graphs import Graph
from raag.words import parse


def show(label, value):
    print(f"  {label:<28} {value}")


def main():
    graph = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    print("Graph: path a - b - c (a and c do not commute)\n")

    print("Normal forms pick the lexicographically least reduced word:")
    for text in ("b a", "c b b^-1 a", "a c a^-1 c^-1", "b a b^-1 c"):
        show(text, parse(graph, text))
    print()

    print("Conjugacy comes back with a verified witness or a named invariant:")
    pairs = [("a b c", "c b a"), ("a c", "c a"), ("a", "c"), ("a c a^-1 c^-1", "1")]
    for left, right in pairs:
        g = parse(graph, left)
        h = parse(graph, right)
        res = conjugate(g, h)
        if hasattr(res, "conjugator"):
            show(f"{left}  ~?  {right}", f"yes, conjugate by {res.conjugator}")
        else:
            show(f"{left}  ~?  {right}", f"no ({res.reason})")
    sigma = conjugate(parse(graph, "a b c"), parse(graph, "c b a")).conjugator
    check = sigma * parse(graph, "a b c") * sigma.inverse()
    print(f"  re-multiplying the witness sigma = {sigma}:"
          f" sigma (a b c) sigma^-1 = {check}\n")

    print("Centralizers as finite generating sets:")
    for text in ("b", "a c", "b^2 a", "c a c"):
        gens = centralizer(parse(graph, text))
        show(f"C({text})", "<" + ", ".join(str(x) for x in gens) + ">")
    print()

    print("Double cosets <A> x <B> with explicit factorizations:")
    a_set, b_set = {0, 1}, {1, 2}  # <a,b> and <b,c>
    x = parse(graph, "c a")
    for text in ("a c a c^-1", "b c a b", "c c a"):
        y = parse(graph, text)
        res = in_double_coset(y, x, a_set, b_set)
        if isinstance(res, CosetFactors):
            show(text, f"= ({res.left}) * (c a) * ({res.right})")
        else:
            show(text, res)


if __name__ == "__main__":
    main()
