"""Mutants the tests must kill, run by tools/run_mutants.py.

Each entry is (file, old text, new text, -k selection): the old text must
occur exactly once in the file, and with it replaced by the new text, the
selected tests must fail (or time out) under ``python -O``.  Selections are
kept small, so that each mutant runs in a few seconds.
"""

AFFINE = "src/affschub/affine.py"

MUTANTS = [
    # the right alcove vector: q[0] left as the entry built for theta
    (AFFINE, "    q[0] = level - q[0]\n", "", "closed_form_descents"),
    # the right alcove vector: the K term with the wrong sign
    (
        AFFINE,
        "heights[j] - level * pair if j < big else heights[j] + level * pair",
        "heights[j] + level * pair if j < big else heights[j] - level * pair",
        "stripping or closed_form_descents",
    ),
    # is_min_rep reading label 0 as a finite descent
    (AFFINE, "return min(_right_alcove(x)[1:]) > 0", "return min(_right_alcove(x)) > 0", "closed_form_descents"),
    # min_rep walking q[1..rank] on the affine Cartan rows
    (AFFINE, "_descend(q, x.datum.cartan_rows, len(", "_descend(q, x.datum.affine_rows, len(", "stripping"),
    # the numbers-game move of the walk down with the wrong sign
    (
        "src/affschub/weyl.py",
        "        for m, e in rows[l]:\n            r[m] -= a * e\n",
        "        for m, e in rows[l]:\n            r[m] += a * e\n",
        "closed_form_matches_greedy",
    ),
    # a zero entry taken as a descent (only the Bott walk meets one)
    ("src/affschub/weyl.py", "            if r[l] < 0:\n", "            if r[l] <= 0:\n", "bott_nodes_match_fraction_oracle"),
    # the Chevalley ladder summing a rung's pairings instead of reading its one positive entry
    (
        "src/affschub/cohomology.py",
        "tuple(map(max, rungs[:-1]))",
        "tuple(map(sum, rungs[:-1]))",
        "ladder_matches_chevalley_oracle",
    ),
    # the enumeration walk climbing on the transposed affine Cartan matrix
    (
        AFFINE,
        "rows = datum.affine_rows",
        "rows = tuple(tuple((m, e) for m, e in enumerate(col) if e) for col in zip(*datum.affine_cartan))",
        "enumeration_points_are_the_elements_pairings",
    ),
    # the lower-interval walk climbing on the transposed affine Cartan matrix
    (
        AFFINE,
        "rows = x.datum.affine_rows\n    origin",
        "rows = tuple(tuple((m, e) for m, e in enumerate(col) if e) for col in zip(*x.datum.affine_cartan))\n    origin",
        "interval_walk_matches_rescanning_oracle",
    ),
    # the coweight orbit pairing by Cartan row instead of by the simple roots' pairing rows
    (
        "src/affschub/verify.py",
        "rows = [datum.pairing_rows[k] for k in datum.simple_index]",
        "rows = datum.cartan",
        "coweight_orbit_matches_group_action",
    ),
    # the long-word threshold reading l(t_theta^v) as ht(theta^v)
    (AFFINE, "LONG_WORD_TRANSLATIONS * 2 * sum(", "LONG_WORD_TRANSLATIONS * sum(", "long_word_is_the_closed_form"),
    # one translation block too many in a long reduced word
    ("src/affschub/weyl.py", "    return most + 1\n", "    return most + 2\n", "block_jumps"),
    # one translation block too many in the word but not in the vector
    ("src/affschub/weyl.py", "labels += block * jumps", "labels += block * (jumps + 1)", "window_oracle"),
    # the strip rule of both searches keeping results that are not minimal representatives
    (
        "src/affschub/schubert.py",
        " is not None and min(y[1:]) > 0:",
        " is not None:",
        "factorizations_match_the_product_search",
    ),
    # the segment search going on past a letter that does not descend
    ("src/affschub/weyl.py", "elif every:", "elif False:", "factorizations_match_the_product_search"),
    # Bruhat order taking a walk of any number of moves as v <= w
    (AFFINE, "!= v.length()", "> v.length()", "bruhat"),
    # Bruhat order answering False for every v as long as w
    (AFFINE, "if v.length() > w.length():", "if v.length() >= w.length():", "bruhat"),
    # delta at height ht(theta), so that alpha_0 has height 0
    ("src/affschub/cartan.py", "level = 2 * height + 1", "level = height", "closed_form_descents"),
    # delta at height 2 ht(theta): the residues mod K no longer tell theta from -theta
    ("src/affschub/cartan.py", "level = 2 * height + 1", "level = 2 * height", "closed_form_descents"),
    # the negative roots given positive heights
    ("src/affschub/cartan.py", "heights=up + tuple(map(neg, up))", "heights=up + up", "reduced_word_roundtrip"),
    # label 0 read at alpha_1 where theta belongs
    (
        "src/affschub/cartan.py",
        'affine_index=(index.get(fields["highest_root"]),) + simple',
        "affine_index=(simple[0],) + simple",
        "reduced_word_roundtrip",
    ),
    # the identity's alcove vector with alpha_0 at height ht(theta)
    ("src/affschub/cartan.py", "identity_alcove=(level - height,)", "identity_alcove=(height,)", "reduced_word_examples"),
    # the label texts numbered from 1
    (
        "src/affschub/cartan.py",
        "label_names=tuple(map(str, range(n + 1)))",
        "label_names=tuple(map(str, range(1, n + 2)))",
        "format_parse_roundtrip",
    ),
    # from_word adding w(theta^v) with the wrong sign
    (
        AFFINE,
        "tuple(map(add, lam, coroots[j])) if j < big else tuple(map(sub, lam, coroots[j - big]))",
        "tuple(map(sub, lam, coroots[j])) if j < big else tuple(map(add, lam, coroots[j - big]))",
        "product_fold",
    ),
    # a link built as the parent times the generator, x s_l where s_l x belongs
    (AFFINE, "gens[label] * elems[parent]", "elems[parent] * gens[label]", "lattice_walk_matches_eager_oracle"),
    # a level's elements stamped one longer than they are
    (AFFINE, "x._len = k", "x._len = k + 1", "lattice_walk_matches_eager_oracle"),
    # an up-step taken at a zero pairing, where s_l stays in the coset (the
    # interval walk skips a point already placed, so only enumeration meets it)
    ("src/affschub/weyl.py", "if (c := point[label]) > 0:", "if (c := point[label]) >= 0:", "lattice_bfs_matches_coset_oracle"),
    # the Bott walk started at level 0
    ("src/affschub/classify.py", "r[0], r[label] = 1 - theta[label - 1], 1", "r[0], r[label] = -theta[label - 1], 1", "bott_nodes_match_fraction_oracle"),
    # the Bott walk skipping the long labels with theta_label = 2 as well
    ("src/affschub/classify.py", "theta[label - 1] > 1 and", "theta[label - 1] > 2 and", "bott_nodes_match_fraction_oracle"),
    # the interval walk's cursor dropping the first point it should step
    (AFFINE, "points[read[label]:]", "points[read[label] + 1:]", "interval_walk_matches_rescanning_oracle"),
    # the segments read from length 2, dropping the length-1 level of the seed interval
    ("src/affschub/schubert.py", "by_length[1:]", "by_length[2:]", "segment"),
    # the star split testing tau^-1 <= sigma where tau^-1 <= sigma^-1 belongs
    ("src/affschub/schubert.py", "reduced_word(sigma)[::-1]", "reduced_word(sigma)", "star_decompose"),
    # the star split skipping the candidates as long as omega, so tau = e is never tried
    ("src/affschub/schubert.py", "if len(letters) > n or", "if len(letters) >= n or", "star_decompose"),
    # star_decompose trying the shortest candidates first
    ("src/affschub/schubert.py", "for level in reversed(levels)", "for level in levels", "star_decompose"),
    # the decompose suite handing its splits the shortest candidates first
    ("src/affschub/verify.py", "key=lambda c: -len(c[1])", "key=lambda c: len(c[1])", "star_decompose"),
    # the Poincare polynomial read without its top level
    ("src/affschub/schubert.py", "lower_interval(w).level_sizes()", "lower_interval(w).level_sizes()[:-1]", "poincare"),
    # a chain rung moved along the Cartan row where its column belongs
    ("src/affschub/cohomology.py", "columns = _sparse_rows(tuple(zip(*datum.cartan)))", "columns = _sparse_rows(datum.cartan)", "ladder"),
    # a reflection reading the root where its coroot belongs
    ("src/affschub/weyl.py", "beta, cor = datum.pos_roots[k], datum.pos_coroots[k]", "beta, cor = datum.pos_roots[k], datum.pos_roots[k]", "reflection"),
    # a root's row stepped from its parent's with + where - belongs
    (
        "src/affschub/cartan.py",
        "tuple([r - a * e for r, e in zip(row, columns[i])])",
        "tuple([r + a * e for r, e in zip(row, columns[i])])",
        "stepped_rows",
    ),
    # the simple roots' indices not reversed
    ("src/affschub/cartan.py", "simple = tuple(range(n - 1, -1, -1))", "simple = tuple(range(n))", "derived_tables"),
    # the affine rows built from the finite Cartan matrix
    ("src/affschub/cartan.py", '"affine_rows": _sparse_rows(fields["affine_cartan"])', '"affine_rows": _sparse_rows(fields["cartan"])', "derived_tables"),
    # the symmetrizers doubled
    ("src/affschub/cartan.py", "d = tuple(r * c // t for", "d = tuple(2 * r * c // t for", "symmetrizers"),
    # the long-root level of -beta one too high
    ("src/affschub/cohomology.py", "from_coeffs(up + up[::-1])", "from_coeffs(up + [0] + up[::-1])", "ladder"),
    # short roots kept among the long ones
    ("src/affschub/cohomology.py", "(top := max(d)) == min(d)", "(top := min(d)) == min(d)", "ladder"),
    # a long root counted one coroot height low
    ("src/affschub/cohomology.py", "        counts[h] += 1\n", "        counts[h - 1] += 1\n", "ladder"),
    # the Bott shortcut taken although a node is minuscule
    ("src/affschub/classify.py", "top, walk = max(d), 1 in theta", "top, walk = max(d), False", "bott_nodes_match_fraction_oracle"),
    # the type list keeping the aliases C1, B2 and D3
    ("src/affschub/classify.py", " and p not in _ALIASES]", "]", "canonical_types_are_the_ranks_rows"),
    # E8 appended to a table that already has it
    ("src/affschub/classify.py", "if max_rank < 8:", "if max_rank <= 8:", "classify_all_rows_add_e8_once"),
    # E8 appended whatever the rank
    ("src/affschub/classify.py", "if max_rank < 8:", "if True:", "classify_all_rows_add_e8_once"),
    # the star row of the bound-flag table naming another quantity, so exit 3 names no flag
    ("src/affschub/cli.py", '"reduced word length", affine.WORD_BOUND', '"word length", affine.WORD_BOUND', "bound_exceeded_names_flag"),
    # the default enumeration ceiling one length too high through rank 2
    (AFFINE, "12 if datum.rank <= 2", "13 if datum.rank <= 2", "output_pinned"),
]
