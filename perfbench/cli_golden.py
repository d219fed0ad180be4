"""Frozen CLI transcripts: the GOLDEN and ERROR_GOLDEN tables of tests/test_cli.py.

Copied byte for byte so the benchmark checks the same outputs without
importing the test suite.  GOLDEN rows are (argv, stdout, exit code);
ERROR_GOLDEN rows are (argv, stderr or None, exit code) with empty stdout.
"""

GOLDEN = [(['eval', 'sqrt(1+o)', '--order', '4'],
  '1 + 1/2*o - 1/8*o^2 + 1/16*o^3 - 5/128*o^4 + O(o^5)\n',
  0),
 (['eval', 'o*S'], '1\n', 0),
 (['eval', '0'], '0\n', 0),
 (['eval', '(1+o) - (1+o)'], '0\n', 0),
 (['eval', '(2+3*o)^(-1)', '--order', '3'], '1/2 - 3/4*o + 9/8*o^2 - 27/16*o^3 + O(o^4)\n', 0),
 (['eval', 'D^2[exp](o)', '--order', '5'], 'o^2 + 2*o^3 + 25/12*o^4 + 3/2*o^5 + O(o^6)\n', 0),
 (['eval', 'd^2[exp](o)', '--order', '3'], 'o^2 + o^3 + 1/2*o^4 + 1/6*o^5 + O(o^6)\n', 0),
 (['eval', 'exp(o)', '--order', '3'], '1 + o + 1/2*o^2 + 1/6*o^3 + O(o^4)\n', 0),
 (['eval', 'log(1+o)', '--order', '4'], 'o - 1/2*o^2 + 1/3*o^3 - 1/4*o^4 + O(o^5)\n', 0),
 (['eval', 'geometric(o+o^2)', '--order', '4'], '1 + o + 2*o^2 + 3*o^3 + 5*o^4 + O(o^5)\n', 0),
 (['eval', 'sin(o)+cos(o)', '--order', '4'],
  '1 + o - 1/2*o^2 - 1/6*o^3 + 1/24*o^4 + O(o^5)\n',
  0),
 (['eval', 'solve[poly[0,0,1] = 1+o; 1]', '--order', '4'],
  '1 + 1/2*o - 1/8*o^2 + 1/16*o^3 - 5/128*o^4 + O(o^5)\n',
  0),
 (['eval', 'int[poly[0,1]](5*o)'], '10*o^2\n', 0),
 (['eval', '2*S + 1 - 1/2*o'], '2*S + 1 - 1/2*o\n', 0),
 (['eval', '(2*S+1-1/2*o)/(1+o)', '--order', '2'], '2*S - 1 + 1/2*o + O(o^2)\n', 0),
 (['eval', 'int^2[poly[0,1]; 0, 3](2*o)'], '6*o\n', 0),
 (['cmp', 'o', '1'], 'Less\n', 0),
 (['cmp', 'S', '1000000'], 'Greater\n', 0),
 (['cmp', 'eps', '1/1000000000'], 'Less\n', 0),
 (['cmp', 'eps', '1000000000*o'], 'Greater\n', 0),
 (['cmp', '3-eps', '3-o'], 'Less\n', 0),
 (['cmp', '0-eps', '0'], 'Less\n', 0),
 (['eval', '0-eps'], '-inf*o\n', 0),
 (['eval', 'eps*o'], 'inf*o^2\n', 0),
 (['cmp', '1/(1-o)', '1+o', '--order', '4'], 'Greater\n', 0),
 (['eval', 'sqrt(1+o)', '--order', '2', '--format', 'json'],
  '{"valuation": 0, "coefficients": [[1, 1], [1, 2], [-1, 8]], "known_order": 2, '
  '"infinite_moment": null}\n',
  0),
 (['eval', 'eps', '--format', 'json'],
  '{"valuation": null, "coefficients": [], "known_order": null, "infinite_moment": '
  '{"position": 1, "sign": 1}}\n',
  0),
 (['table', 'dtoD', '--max', '4'],
  'p\\n  1    2    3     4\n'
  '  1  1  1/2  1/6  1/24\n'
  '  2  0    1    1  7/12\n'
  '  3  0    0    1   3/2\n'
  '  4  0    0    0     1\n',
  0),
 (['table', 'Dtod', '--max', '4'],
  'n\\p  1     2    3      4\n'
  '  1  1  -1/2  1/3   -1/4\n'
  '  2  0     1   -1  11/12\n'
  '  3  0     0    1   -3/2\n'
  '  4  0     0    0      1\n',
  0),
 (['table', 'a', '--max', '4'],
  'm\\l      1     2     3     4    5\n'
  '  0      1     .     .     .    .\n'
  '  1   -1/2   1/2     .     .    .\n'
  '  2    1/6  -1/2   1/3     .    .\n'
  '  3      0   1/4  -1/2   1/4    .\n'
  '  4  -1/30     0   1/3  -1/2  1/5\n',
  0),
 (['table', 'bernoulli', '--max', '6'],
  'p    B_p\n0      1\n1   -1/2\n2    1/6\n3      0\n4  -1/30\n5      0\n6   1/42\n',
  0),
 (['table', 'X', '--max', '5'],
  'p\\n  1  2  3   4    5\n'
  '  1  1  1  1   1    1\n'
  '  2  0  2  6  14   30\n'
  '  3  0  0  6  36  150\n'
  '  4  0  0  0  24  240\n'
  '  5  0  0  0   0  120\n',
  0),
 (['table', 'K', '--max', '5'],
  'p\\n   1   2   3   4  5\n'
  '  1   1   .   .   .  .\n'
  '  2   1   1   .   .  .\n'
  '  3   2   3   1   .  .\n'
  '  4   6  11   6   1  .\n'
  '  5  24  50  35  10  1\n',
  0),
 (['aleph', 'succ', 'S^2+3'], 'S^2 + 4\n', 0),
 (['aleph', 'member', 'S-5'], 'true\n', 0),
 (['aleph', 'member', '0-S'], 'false\n', 0),
 (['aleph', 'mul', 'S+1', 'S-1'], 'S^2 - 1\n', 0),
 (['aleph', 'div', 'S', '2'], '1/2*S\n', 0),
 (['demo', 'leibniz-pi', '--terms', '5'], '1\n2/3\n13/15\n76/105\n263/315\n', 0),
 (['expand', '(1+o)/(o^2*(1-o))', '--order', '3'],
  'S^2 + 2*S + 2 + 2*o + 2*o^2 + 2*o^3 + O(o^4)\n',
  0),
 (['expand', '1/o'], 'S\n', 0),
 (['bsum', 'poly[0,0,1]', '--steps', '5'], '30*o^3\n', 0),
 (['diff', 'poly[0,0,0,1]', '--p', '3'], '6*o^3\n', 0),
 (['ode', 'poly[0,1]', '--p', '2'], 'a_0 = 0\na_1 = 1/3*o^2\na_2 = -1/2*o\na_3 = 1/6\n', 0),
 (['lift', 'poly[0,0,0,1]', '--target', '8+o', '--seed', '2', '--order', '3'],
  '2 + 1/12*o - 1/288*o^2 + 5/20736*o^3 + O(o^4)\n',
  0),
 (['sum', 'exp', '--order', '3'],
  'a_0 = 0\n'
  'a_1 = 1 - 1/2*o + 1/12*o^2 + O(o^4)\n'
  'a_2 = 1/2 - 1/4*o + 1/24*o^2 + O(o^4)\n'
  'a_3 = 1/6 - 1/12*o + 1/72*o^2 + O(o^4)\n',
  0)]

ERROR_GOLDEN = [(['eval', '(2+3*o)^-1'],
  "error: parse error at offset 8: expected integer or '('; found '-'\n",
  1),
 (['eval', 'sqrt(2+o)'], 'error: 2^1/2 is irrational\n', 2),
 (['eval', 'o^(1/2)'],
  'error: fractional powers need a standard leading term (valuation 0)\n',
  2),
 (['cmp', '1/(1-o)', '1/(1-o)', '--order', '3'], None, 3),
 (['eval', 'nosuch(o)'], None, 2),
 (['eval', 'eps+eps'], None, 2),
 (['eval', 'exp(1)'], None, 2)]
