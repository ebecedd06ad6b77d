package repro.core

/** Streaming-SQL analysis failure (our analogue of AnalysisException,
  * whose constructors are error-class-keyed in Spark 4). Spark's own
  * parse and analysis errors are raised as one of these, with Spark's
  * exception as the cause.
  */
final class StreamSqlAnalysisException(message: String, cause: Throwable = null)
    extends RuntimeException(message, cause)
