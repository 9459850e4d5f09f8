"""The two single-value engine calls the tests make most.

``PromptServeEngine`` answers through ``query(QueryRequest(...))`` and
absorbs samples through ``submit(TuneRequest(...))``; these spell the
one-query and one-sample cases.
"""

from repro.serve import QueryRequest, TuneRequest


def answer_text(engine, user_id, text, generation=None):
    """The text ``engine.query`` answers ``text`` with for ``user_id``."""
    return engine.query(QueryRequest(user_id=user_id, text=text,
                                     generation=generation)).answer


def tune_one(engine, user_id, sample):
    """Submit one sample; True when it fired a training epoch."""
    return engine.submit(TuneRequest(user_id=user_id,
                                     samples=(sample,))).epochs_fired > 0
