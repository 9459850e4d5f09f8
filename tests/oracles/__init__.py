"""Reference implementations the equivalence matrices compare against.

The rule: a slow reference lives here, never behind a production flag.
``src/`` cannot import this package, so no deployment can select one.
"""
