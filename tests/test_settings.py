def test_a_failing_given_test_leaves_later_tests_running(pytester, pytestconfig):
    # On a failing example hypothesis imports libcst, whose import warns under
    # the project's filters; the run must go on and count every test. A fresh
    # interpreter makes sure that import happens.
    filters = "".join(f"    {f}\n" for f in pytestconfig.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n{filters}")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        def test_plain_fails():
            assert False

        @given(st.integers())
        def test_given_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=2, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
